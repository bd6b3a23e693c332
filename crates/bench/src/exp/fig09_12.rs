//! Figs. 9, 10 and 12 share the same adaptive runs and are produced
//! together:
//!
//! - **Fig. 9** — measured vs predicted error per wave for the last
//!   processing step, plus the prediction deviation, at bounds 5/10/20%;
//! - **Fig. 10** — confidence in respecting the error bound over waves;
//! - **Fig. 12** — executions performed with QoD versus the synchronous
//!   model: the cumulative normalised-execution series (a/c) and the total
//!   execution counts predicted/optimal/sync (b/d).

use smartflux::eval::{EvalPolicy, EvalReport};

use crate::{heading, pct, write_csv, Workload, BOUNDS};

/// Execution totals for one (workload, bound): Fig. 12 (b)/(d) bars.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionTotals {
    /// Managed-step executions under SmartFlux (the paper's "predicted").
    pub predicted: u64,
    /// Managed-step executions under the oracle ("optimal").
    pub optimal: u64,
    /// Managed-step executions under the synchronous model.
    pub sync: u64,
}

/// The per-bound artefacts of one workload's runs.
#[derive(Debug)]
pub struct BoundRun {
    /// The error bound.
    pub bound: f64,
    /// The SmartFlux evaluation report.
    pub smartflux: EvalReport,
    /// Totals for the Fig. 12 comparison.
    pub totals: ExecutionTotals,
}

/// Runs SmartFlux, oracle and sync for every bound on one workload.
#[must_use]
pub fn run_workload(workload: Workload) -> Vec<BoundRun> {
    let waves = workload.application_waves();
    BOUNDS
        .iter()
        .map(|&bound| {
            let smartflux = workload.evaluate_policy(
                bound,
                EvalPolicy::SmartFlux(Box::new(workload.engine_config())),
                waves,
            );
            let oracle = workload.evaluate_policy(bound, EvalPolicy::Oracle, waves);
            let sync = workload.evaluate_policy(bound, EvalPolicy::Sync, waves);
            let totals = ExecutionTotals {
                predicted: smartflux.total_managed_executions(),
                optimal: oracle.total_managed_executions(),
                sync: sync.total_managed_executions(),
            };
            BoundRun {
                bound,
                smartflux,
                totals,
            }
        })
        .collect()
}

/// Runs the experiment for both workloads and writes every series.
pub fn run() {
    heading("Figs. 9/10/12 — error tracking, confidence, executions");
    for wl in [Workload::Lrb, Workload::Aqhi] {
        let runs = run_workload(wl);

        // Fig. 9: measured vs predicted error + deviation.
        let mut fig9 = Vec::new();
        for r in &runs {
            for w in &r.smartflux.waves {
                fig9.push(format!(
                    "{},{},{:.6},{:.6},{:.6},{}",
                    r.bound,
                    w.wave,
                    w.measured_error,
                    w.predicted_error,
                    w.predicted_error - w.measured_error,
                    u8::from(w.executed_output),
                ));
            }
        }
        write_csv(
            &format!("fig09_errors_{}.csv", wl.id()),
            "bound,wave,measured,predicted,deviation,executed_output",
            &fig9,
        );

        // Fig. 10: confidence series.
        let mut fig10 = Vec::new();
        for r in &runs {
            for (i, c) in r.smartflux.confidence_series().iter().enumerate() {
                fig10.push(format!("{},{},{:.6}", r.bound, i + 1, c));
            }
        }
        write_csv(
            &format!("fig10_confidence_{}.csv", wl.id()),
            "bound,wave,confidence",
            &fig10,
        );

        // Fig. 12 (a/c): cumulative normalised executions.
        let mut fig12 = Vec::new();
        for r in &runs {
            for (i, v) in r
                .smartflux
                .normalized_executions_series()
                .iter()
                .enumerate()
            {
                fig12.push(format!("{},{},{:.6}", r.bound, i + 1, v));
            }
        }
        write_csv(
            &format!("fig12_normalized_{}.csv", wl.id()),
            "bound,wave,normalized_executions",
            &fig12,
        );

        // Fig. 12 (b/d): totals.
        let mut totals = Vec::new();
        println!("\n{} (paper Fig. 12):", wl.id());
        println!(
            "  {:>6} {:>11} {:>9} {:>6} {:>12} {:>11}",
            "bound", "predicted", "optimal", "sync", "normalized", "confidence"
        );
        for r in &runs {
            println!(
                "  {:>6} {:>11} {:>9} {:>6} {:>12} {:>11}",
                pct(r.bound),
                r.totals.predicted,
                r.totals.optimal,
                r.totals.sync,
                pct(r.smartflux.normalized_executions()),
                pct(r.smartflux.confidence.confidence()),
            );
            totals.push(format!(
                "{},{},{},{}",
                r.bound, r.totals.predicted, r.totals.optimal, r.totals.sync
            ));
        }
        write_csv(
            &format!("fig12_totals_{}.csv", wl.id()),
            "bound,predicted_executions,optimal_executions,sync_executions",
            &totals,
        );

        // Fig. 9 summary: violation counts and magnitudes.
        for r in &runs {
            let violations: Vec<f64> = r
                .smartflux
                .waves
                .iter()
                .filter(|w| !w.compliant)
                .map(|w| w.measured_error - r.bound)
                .collect();
            let max_over = violations.iter().copied().fold(0.0, f64::max);
            println!(
                "  bound {:>5}: {} violations over {} waves (max overshoot {:.3})",
                pct(r.bound),
                violations.len(),
                r.smartflux.waves.len(),
                max_over
            );
        }
    }
}
