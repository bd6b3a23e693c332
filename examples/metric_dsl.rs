//! QoD metrics written in the expression DSL (the paper's promised
//! "high-level DSL language for non-expert users") instead of in Rust.
//!
//! The workflow is declared with the typed builder, the Rust equivalent of
//! the paper's extended Oozie XML schema (§4.2): each step is bound to the
//! containers it reads and writes and to its `maxε` bound.
//!
//! Run with: `cargo run --example metric_dsl`

use smartflux::{dsl, EngineConfig, QodSpec, SmartFluxSession};
use smartflux_datastore::{ContainerRef, DataStore, Value};
use smartflux_wms::{FnStep, GraphBuilder, StepContext, Workflow};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Containers: water-level telemetry from a dam's sensor array, its
    //    summary and the spill forecast derived from it.
    let store = DataStore::new();
    let levels = ContainerRef::family("dam", "levels");
    let summary = ContainerRef::family("dam", "summary");
    let forecast = ContainerRef::family("dam", "forecast");
    for c in [&levels, &summary, &forecast] {
        store.ensure_container(c)?;
    }

    // 2. The workflow DAG: telemetry → aggregate → spill-forecast.
    let mut graph = GraphBuilder::new("reservoir");
    let telemetry = graph.add_step("telemetry");
    let aggregate = graph.add_step("aggregate");
    let spill = graph.add_step("spill-forecast");
    graph.add_chain(&[telemetry, aggregate, spill])?;
    let mut workflow = Workflow::new(graph.build()?);

    workflow
        .bind(
            telemetry,
            FnStep::new(|ctx: &StepContext| {
                let w = ctx.wave() as f64;
                let levels = ctx.family("dam", "levels")?;
                for s in 0..12 {
                    let level = 40.0
                        + 6.0 * ((w + s as f64) / 9.0).sin()
                        + 0.4 * ((w * 3.1 + s as f64).sin());
                    levels.put(&format!("gauge-{s:02}"), "m", Value::from(level))?;
                }
                Ok(())
            }),
        )
        .source()
        .writes(levels.clone());
    workflow
        .bind(
            aggregate,
            FnStep::new(|ctx: &StepContext| {
                let mut levels: Vec<f64> = Vec::new();
                ctx.family("dam", "levels")?
                    .for_each_row(|_gauge, row| levels.extend(row.f64("m")))?;
                let mean = levels.iter().sum::<f64>() / levels.len().max(1) as f64;
                let peak = levels.iter().copied().fold(0.0, f64::max);
                // Both cells of the summary row, under one write guard.
                ctx.family("dam", "summary")?.put_row(
                    "all",
                    [("mean", Value::from(mean)), ("peak", Value::from(peak))],
                )?;
                Ok(())
            }),
        )
        .reads(levels)
        .writes(summary.clone())
        .error_bound(0.05);
    workflow
        .bind(
            spill,
            FnStep::new(|ctx: &StepContext| {
                let mean = ctx.get_f64("dam", "summary", "all", "mean", 0.0)?;
                let peak = ctx.get_f64("dam", "summary", "all", "peak", 0.0)?;
                let risk = ((0.6 * mean + 0.4 * peak) - 40.0).max(0.0) / 10.0;
                ctx.put("dam", "forecast", "all", "spill_risk", Value::from(risk))?;
                Ok(())
            }),
        )
        .reads(summary)
        .writes(forecast)
        .error_bound(0.05);

    // 3. QoD metric functions written in the DSL instead of Rust.
    let qod = QodSpec::new()
        .with_impact(dsl::compile("sum_abs_delta * modified")?) // Eq. 1
        .with_error(dsl::compile("clamp01(sum_abs_delta / prev_sum)")?); // scale-free Eq. 3

    let config = EngineConfig::new()
        .with_training_waves(80)
        .with_quality_gates(0.5, 0.5)
        .with_default_spec(qod)
        .with_seed(4);

    // 4. Train, then run adaptively.
    let mut session = SmartFluxSession::new(workflow, store.clone(), config)?;
    session.run_training()?;
    session.run_waves(60)?;

    let stats = session.scheduler().stats();
    println!(
        "after 60 adaptive waves: {:.0}% of executions performed, spill risk = {:.3}",
        stats.normalized_executions() * 100.0,
        store
            .get("dam", "forecast", "all", "spill_risk")?
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    );
    Ok(())
}
