//! Quickstart: a minimal SmartFlux deployment.
//!
//! Builds a three-step sensor pipeline, trains the QoD engine during a
//! synchronous phase, then processes waves adaptively — skipping the
//! downstream steps whenever the predicted output deviation stays within
//! the 5% error bound.
//!
//! Run with: `cargo run --example quickstart`

use smartflux::{EngineConfig, Phase, SmartFluxSession};
use smartflux_datastore::{ContainerRef, DataStore, StoreError, Value};
use smartflux_wms::{FnStep, GraphBuilder, StepContext, Workflow};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Containers: steps communicate exclusively through the data store.
    let store = DataStore::new();
    let raw = ContainerRef::family("plant", "raw");
    let avg = ContainerRef::family("plant", "avg");
    let alarm = ContainerRef::family("plant", "alarm");
    for c in [&raw, &avg, &alarm] {
        store.ensure_container(c)?;
    }

    // 2. The workflow DAG: ingest → average → alarm-level.
    let mut graph = GraphBuilder::new("quickstart");
    let ingest = graph.add_step("ingest");
    let average = graph.add_step("average");
    let level = graph.add_step("alarm-level");
    graph.add_chain(&[ingest, average, level])?;
    let mut workflow = Workflow::new(graph.build()?);

    // Ingest: 16 sensors with a smooth daily cycle. Sources always run.
    workflow
        .bind(
            ingest,
            FnStep::new(|ctx: &StepContext| {
                let hour = ctx.wave() % 24;
                let day = ((hour as f64 - 6.0) / 24.0 * std::f64::consts::TAU).sin();
                // A loop over one family resolves it once.
                let raw = ctx.family("plant", "raw")?;
                for s in 0..16 {
                    let v = 60.0 + 25.0 * day.max(0.0) + (s as f64) * 0.25;
                    raw.put(&format!("sensor-{s:02}"), "value", Value::from(v))?;
                }
                Ok(())
            }),
        )
        .source()
        .writes(raw.clone());

    // Average: tolerates a 5% output error, so it can be skipped while its
    // input has not changed meaningfully.
    workflow
        .bind(
            average,
            FnStep::new(|ctx: &StepContext| {
                // Reads run in one scope under the store's read guard, rows
                // read in place; the step writes once the scope is done.
                let (sum, rows) = ctx.read(|r| {
                    let raw = r.family("plant", "raw")?;
                    let values = raw
                        .rows()
                        .map(|(_sensor, row)| row.f64("value").unwrap_or(0.0));
                    Ok::<_, StoreError>(values.fold((0.0, 0usize), |(sum, n), v| (sum + v, n + 1)))
                })?;
                let mean = sum / rows.max(1) as f64;
                ctx.put("plant", "avg", "all", "value", Value::from(mean))?;
                Ok(())
            }),
        )
        .reads(raw)
        .writes(avg.clone())
        .error_bound(0.05);

    // Alarm level: also bounded at 5%.
    workflow
        .bind(
            level,
            FnStep::new(|ctx: &StepContext| {
                let mean = ctx.get_f64("plant", "avg", "all", "value", 0.0)?;
                ctx.put(
                    "plant",
                    "alarm",
                    "all",
                    "level",
                    Value::from((mean / 20.0).floor()),
                )?;
                Ok(())
            }),
        )
        .reads(avg)
        .writes(alarm)
        .error_bound(0.05);

    // 3. A session: train for 72 waves (3 simulated days), then adapt.
    let config = EngineConfig::new()
        .with_training_waves(72)
        .with_quality_gates(0.6, 0.6)
        .with_seed(7);
    let mut session = SmartFluxSession::new(workflow, store, config)?;

    let trained = session.run_training()?;
    println!("training phase: {trained} synchronous waves");
    if let Some(q) = session.predictor_quality() {
        println!(
            "test phase: accuracy {:.2}, precision {:.2}, recall {:.2}",
            q.accuracy, q.precision, q.recall
        );
    }
    assert_eq!(session.phase(), Phase::Application);

    // 4. Adaptive processing: run two more days and inspect the savings.
    session.run_waves(48)?;
    let stats = session.scheduler().stats();
    println!("\nafter 48 adaptive waves:");
    for (name, id) in [("average", average), ("alarm-level", level)] {
        println!(
            "  {:<12} skipped {:>2} of 48 adaptive waves",
            name,
            stats.skips(id)
        );
    }
    println!(
        "  normalized executions vs synchronous: {:.0}%",
        stats.normalized_executions() * 100.0
    );
    Ok(())
}
