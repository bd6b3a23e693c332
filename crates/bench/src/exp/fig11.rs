//! Fig. 11: comparison of confidence levels for different triggering
//! approaches with an error bound of 5% — SmartFlux vs random skipping and
//! seq2/seq3/seq5 periodic execution.

use smartflux::eval::EvalPolicy;

use crate::{heading, pct, write_csv, Workload};

/// Final confidence of one policy on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyResult {
    /// Policy label (smartflux / random / seq2 / seq3 / seq5).
    pub policy: String,
    /// Final confidence after all waves.
    pub confidence: f64,
    /// Normalised executions (resource usage).
    pub normalized_executions: f64,
    /// The full confidence series.
    pub series: Vec<f64>,
}

/// Runs all five triggering approaches at the 5% bound.
#[must_use]
pub fn compare(workload: Workload) -> Vec<PolicyResult> {
    let bound = 0.05;
    let waves = workload.application_waves();
    let policies: Vec<(String, EvalPolicy)> = vec![
        (
            "smartflux".into(),
            EvalPolicy::SmartFlux(Box::new(workload.engine_config())),
        ),
        ("random".into(), EvalPolicy::Random { seed: 23 }),
        ("seq2".into(), EvalPolicy::EveryN { n: 2 }),
        ("seq3".into(), EvalPolicy::EveryN { n: 3 }),
        ("seq5".into(), EvalPolicy::EveryN { n: 5 }),
    ];
    policies
        .into_iter()
        .map(|(name, policy)| {
            let report = workload.evaluate_policy(bound, policy, waves);
            PolicyResult {
                policy: name,
                confidence: report.confidence.confidence(),
                normalized_executions: report.normalized_executions(),
                series: report.confidence_series(),
            }
        })
        .collect()
}

/// Runs the experiment for both workloads.
pub fn run() {
    heading("Fig. 11 — confidence of SmartFlux vs naive triggering (5% bound)");
    println!("paper reference: none of the naive approaches beats SmartFlux (>95%)");
    for wl in [Workload::Lrb, Workload::Aqhi] {
        let results = compare(wl);
        println!("\n{}:", wl.id());
        println!(
            "  {:<10} {:>11} {:>12}",
            "policy", "confidence", "executions"
        );
        let mut csv = Vec::new();
        for r in &results {
            println!(
                "  {:<10} {:>11} {:>12}",
                r.policy,
                pct(r.confidence),
                pct(r.normalized_executions)
            );
            for (i, c) in r.series.iter().enumerate() {
                csv.push(format!("{},{},{:.6}", r.policy, i + 1, c));
            }
        }
        write_csv(
            &format!("fig11_baselines_{}.csv", wl.id()),
            "policy,wave,confidence",
            &csv,
        );
        let smartflux = &results[0];
        let best_baseline = results[1..]
            .iter()
            .map(|r| r.confidence)
            .fold(0.0, f64::max);
        println!(
            "  smartflux {} vs best baseline {}",
            pct(smartflux.confidence),
            pct(best_baseline)
        );
    }
}
