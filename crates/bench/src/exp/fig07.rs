//! Fig. 7: correlation between input impact and output error for the main
//! processing steps of LRB and AQHI (maxε = 20%).
//!
//! The paper plots the per-wave (ι, ε) points collected during synchronous
//! execution and reports the sample Pearson coefficient r per step,
//! motivating the use of ML over simple linear fits (r far from 1 for most
//! steps, especially LRB).

use smartflux::eval::{pearson, EvalPolicy};

use crate::{heading, write_csv, Workload};

/// The (ι, ε) scatter and Pearson r for one step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepCorrelation {
    /// Step name.
    pub step: String,
    /// Per-wave input impacts.
    pub impacts: Vec<f64>,
    /// Per-wave simulated output errors.
    pub errors: Vec<f64>,
    /// Sample Pearson correlation coefficient.
    pub r: f64,
}

/// Collects the training-phase (ι, ε) pairs for every QoD step of a
/// workload at the 20% bound.
#[must_use]
pub fn collect(workload: Workload) -> Vec<StepCorrelation> {
    let bound = 0.20;
    let report = workload.evaluate_policy(
        bound,
        EvalPolicy::SmartFlux(Box::new(workload.engine_config())),
        1, // training diagnostics are what we need
    );
    let engine = report.engine.expect("smartflux run provides the engine");
    engine.with(|e| {
        let names: Vec<String> = e.qod_step_names().iter().map(|s| (*s).to_owned()).collect();
        let training: Vec<_> = e.diagnostics().iter().filter(|d| d.training).collect();
        names
            .iter()
            .enumerate()
            .map(|(j, name)| {
                let impacts: Vec<f64> = training.iter().map(|d| d.impacts[j]).collect();
                let errors: Vec<f64> = training.iter().map(|d| d.errors()[j]).collect();
                let r = pearson(&impacts, &errors);
                StepCorrelation {
                    step: name.clone(),
                    impacts,
                    errors,
                    r,
                }
            })
            .collect()
    })
}

/// Runs the experiment for both workloads: prints r per step and writes the
/// scatter CSVs.
pub fn run() {
    heading("Fig. 7 — correlation between input impact and error (maxε = 20%)");
    println!(
        "paper reference: LRB r ∈ [0.065, 0.15] (weak); AQHI zones 0.68, hotspots 0.31, index 0.87"
    );
    for wl in [Workload::Lrb, Workload::Aqhi] {
        let correlations = collect(wl);
        println!("\n{}:", wl.id());
        let mut csv = Vec::new();
        for c in &correlations {
            println!(
                "  {:<20} r = {:+.3}  ({} waves)",
                c.step,
                c.r,
                c.impacts.len()
            );
            for (i, (impact, error)) in c.impacts.iter().zip(&c.errors).enumerate() {
                csv.push(format!("{},{},{:.6e},{:.6}", c.step, i + 1, impact, error));
            }
        }
        write_csv(
            &format!("fig07_correlation_{}.csv", wl.id()),
            "step,wave,impact,error",
            &csv,
        );
        let rs: Vec<String> = correlations
            .iter()
            .map(|c| format!("{},{:.4}", c.step, c.r))
            .collect();
        write_csv(
            &format!("fig07_pearson_{}.csv", wl.id()),
            "step,pearson_r",
            &rs,
        );
    }
}
