//! The paper's motivational example (Fig. 1/2): continuous fire-risk
//! assessment over a forest sensor network.
//!
//! Builds the seven-step fire-risk workflow, runs it under SmartFlux, and
//! prints the overall risk as it evolves through a simulated day — showing
//! which waves actually recomputed the risk and which reused the last
//! emitted result.
//!
//! Run with: `cargo run --example fire_risk`

use smartflux::eval::WorkloadFactory;
use smartflux::{EngineConfig, QodEngine, SharedEngine};
use smartflux_datastore::DataStore;
use smartflux_wms::Scheduler;
use smartflux_workloads::fire::{FireFactory, TABLE};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let factory = FireFactory::with_bound(0.05);
    let store = DataStore::new();
    let workflow = factory.build(&store);

    let overall = workflow
        .graph()
        .step_id("overall-risk")
        .expect("workflow declares the output step");

    let config = EngineConfig::new()
        .with_training_waves(96) // four synchronous days
        .with_quality_gates(0.5, 0.5)
        .with_seed(3);
    let engine = SharedEngine::new(QodEngine::from_workflow(&workflow, store.clone(), config)?);
    let mut scheduler = Scheduler::new(workflow, store.clone(), Box::new(engine.clone()));

    // Training: the workflow runs synchronously while SmartFlux learns the
    // correlation between sensor changes and risk changes.
    while engine.with(|e| matches!(e.phase(), smartflux::Phase::Training { .. })) {
        scheduler.run_wave()?;
    }
    let trained_skips = scheduler.stats().total_skips();
    println!(
        "trained on {} waves; model quality: {:?}",
        scheduler.stats().waves(),
        engine.with(|e| e.predictor().quality())
    );

    // One adaptive day, hour by hour.
    println!(
        "\n{:>4} {:>9} {:>9} {:>9}",
        "hour", "risk", "hotspots", "computed"
    );
    for hour in 0..24 {
        let outcome = scheduler.run_wave()?;
        let risk = store
            .get(TABLE, "overall", "region", "risk")?
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        let hotspots = store
            .get(TABLE, "overall", "region", "hotspots")?
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        println!(
            "{:>4} {:>9.3} {:>9} {:>9}",
            hour,
            risk,
            hotspots as u64,
            if outcome.did_execute(overall) {
                "yes"
            } else {
                "reused"
            }
        );
    }

    let stats = scheduler.stats();
    println!(
        "\nadaptive day: {} of 24 overall-risk recomputations skipped",
        stats.skips(overall)
    );
    println!(
        "{} step executions avoided across the whole workflow",
        stats.total_skips() - trained_skips
    );
    Ok(())
}
