//! Declarative deployment: define the workflow in the extended-Oozie XML
//! format (§4.2) and the QoD metric functions in the expression DSL (the
//! paper's promised "high-level DSL language for non-expert users").
//!
//! Run with: `cargo run --example declarative_spec`

use std::sync::Arc;

use smartflux::{dsl, EngineConfig, QodSpec, SmartFluxSession};
use smartflux_datastore::{ContainerRef, DataStore, Value};
use smartflux_wms::{FnStep, Step, StepContext, WorkflowSpec};

const WORKFLOW_XML: &str = r#"
<workflow name="reservoir">
  <!-- Water-level telemetry from a dam's sensor array. -->
  <action name="telemetry" source="true">
    <writes table="dam" family="levels"/>
  </action>
  <action name="aggregate">
    <reads table="dam" family="levels"/>
    <writes table="dam" family="summary"/>
    <qod error-bound="0.05"/>
  </action>
  <action name="spill-forecast">
    <reads table="dam" family="summary"/>
    <writes table="dam" family="forecast"/>
    <qod error-bound="0.05"/>
  </action>
  <flow from="telemetry" to="aggregate"/>
  <flow from="aggregate" to="spill-forecast"/>
</workflow>
"#;

fn implementation(name: &str) -> Option<Arc<dyn Step>> {
    match name {
        "telemetry" => Some(Arc::new(FnStep::new(|ctx: &StepContext| {
            let w = ctx.wave() as f64;
            let levels = ctx.family("dam", "levels")?;
            for s in 0..12 {
                let level =
                    40.0 + 6.0 * ((w + s as f64) / 9.0).sin() + 0.4 * ((w * 3.1 + s as f64).sin());
                levels.put(&format!("gauge-{s:02}"), "m", Value::from(level))?;
            }
            Ok(())
        }))),
        "aggregate" => Some(Arc::new(FnStep::new(|ctx: &StepContext| {
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
        }))),
        "spill-forecast" => Some(Arc::new(FnStep::new(|ctx: &StepContext| {
            let mean = ctx.get_f64("dam", "summary", "all", "mean", 0.0)?;
            let peak = ctx.get_f64("dam", "summary", "all", "peak", 0.0)?;
            let risk = ((0.6 * mean + 0.4 * peak) - 40.0).max(0.0) / 10.0;
            ctx.put("dam", "forecast", "all", "spill_risk", Value::from(risk))?;
            Ok(())
        }))),
        _ => None,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Parse the declarative workflow and bind implementations by name.
    let spec = WorkflowSpec::parse(WORKFLOW_XML)?;
    println!(
        "parsed workflow `{}`: {} actions, {} flows",
        spec.name,
        spec.actions.len(),
        spec.flows.len()
    );
    let workflow = spec.instantiate(implementation)?;

    // 2. Containers referenced by the spec.
    let store = DataStore::new();
    for action in &spec.actions {
        for c in action.reads.iter().chain(&action.writes) {
            store.ensure_container(c)?;
        }
    }
    store.ensure_container(&ContainerRef::family("dam", "forecast"))?;

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
