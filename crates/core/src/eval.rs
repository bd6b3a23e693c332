//! The twin-run evaluation harness.
//!
//! The paper's figures compare an adaptive run against the synchronous
//! ground truth: measured errors (Fig. 9), confidence levels (Fig. 10–11)
//! and executions (Fig. 12). This module reproduces that methodology: it
//! runs the *same seeded workload* twice — once under the policy being
//! evaluated and once fully synchronously — and measures, wave by wave, how
//! far the adaptive run's output drifted from the truth.

use std::collections::HashMap;

use smartflux_datastore::{ContainerRef, DataStore, Snapshot};
use smartflux_telemetry::Telemetry;
use smartflux_wms::{Scheduler, StepId, SynchronousPolicy, TriggerPolicy, Workflow};

use crate::confidence::ConfidenceTracker;
use crate::config::EngineConfig;
use crate::engine::{QodEngine, SharedEngine};
use crate::error::CoreError;
use crate::metric::{MetricContext, MetricKind};
use crate::policy::{EveryNPolicy, RandomSkipPolicy};
use crate::qod::ErrorBound;

/// Builds identical, deterministic workflow instances over any store.
///
/// Implementations must guarantee that two workflows built by the same
/// factory produce identical container contents when executed synchronously
/// over the same waves — i.e. the feed is a pure function of the wave
/// number and the factory's seed. This is what makes the twin-run
/// comparison meaningful.
pub trait WorkloadFactory {
    /// Creates containers on `store` and returns the bound workflow.
    fn build(&self, store: &DataStore) -> Workflow;

    /// Name of the step whose output containers constitute the *workflow
    /// output* (the paper's last processing step).
    fn output_step(&self) -> &str;

    /// A short name for reports.
    fn name(&self) -> &str;
}

/// Which trigger policy an evaluation run uses.
#[derive(Debug, Clone)]
pub enum EvalPolicy {
    /// The synchronous data-flow baseline (every step, every wave).
    Sync,
    /// Coin-flip skipping (the paper's `random`).
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// Execute every `n`-th wave (the paper's `seqX`).
    EveryN {
        /// The period.
        n: u64,
    },
    /// The perfect predictor: skips exactly while the true error stays
    /// within the bound (upper bound on savings, Fig. 12 "optimal").
    Oracle,
    /// SmartFlux: training phase, test phase, then adaptive execution.
    ///
    /// Boxed: an [`EngineConfig`] is an order of magnitude larger than the
    /// other variants.
    SmartFlux(Box<EngineConfig>),
}

/// Per-wave measurements of an evaluation run.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveRecord {
    /// Wave number.
    pub wave: u64,
    /// True output deviation: adaptive output vs synchronous output.
    pub measured_error: f64,
    /// The error implied by the policy's skip schedule (resets to zero on
    /// each execution of the output step).
    pub predicted_error: f64,
    /// Whether the measured error respected the output step's bound.
    pub compliant: bool,
    /// Whether the adaptive run executed the output step this wave.
    pub executed_output: bool,
    /// Executions of policy-managed (bounded, non-always-run) steps.
    pub managed_executions: u64,
    /// Skips of policy-managed steps.
    pub managed_skips: u64,
}

/// The outcome of one evaluation run.
#[derive(Debug)]
pub struct EvalReport {
    /// Workload name.
    pub workload: String,
    /// Policy description.
    pub policy: String,
    /// Per-wave records, for application waves only (training waves of a
    /// SmartFlux run are reported separately via the engine diagnostics).
    pub waves: Vec<WaveRecord>,
    /// Confidence tracker over the application waves.
    pub confidence: ConfidenceTracker,
    /// The engine, for SmartFlux runs (training diagnostics, knowledge
    /// base, predictor quality).
    pub engine: Option<SharedEngine>,
    /// The adaptive run's telemetry handle. Inert unless the SmartFlux
    /// config enabled telemetry; then it carries the metrics snapshot and
    /// journal path of the run.
    pub telemetry: Telemetry,
}

impl EvalReport {
    /// Total managed-step executions over the recorded waves.
    #[must_use]
    pub fn total_managed_executions(&self) -> u64 {
        self.waves.iter().map(|w| w.managed_executions).sum()
    }

    /// Total managed-step skips over the recorded waves.
    #[must_use]
    pub fn total_managed_skips(&self) -> u64 {
        self.waves.iter().map(|w| w.managed_skips).sum()
    }

    /// Executions over (executions + skips) of managed steps — the paper's
    /// normalised executions relative to the synchronous model.
    #[must_use]
    pub fn normalized_executions(&self) -> f64 {
        let e = self.total_managed_executions() as f64;
        let s = self.total_managed_skips() as f64;
        if e + s == 0.0 {
            1.0
        } else {
            e / (e + s)
        }
    }

    /// Cumulative normalised executions per wave (Fig. 12 a/c series).
    #[must_use]
    pub fn normalized_executions_series(&self) -> Vec<f64> {
        let mut exec = 0.0;
        let mut total = 0.0;
        self.waves
            .iter()
            .map(|w| {
                exec += w.managed_executions as f64;
                total += (w.managed_executions + w.managed_skips) as f64;
                if total == 0.0 {
                    1.0
                } else {
                    exec / total
                }
            })
            .collect()
    }

    /// Running confidence after each recorded wave (the Fig. 10 series).
    #[must_use]
    pub fn confidence_series(&self) -> Vec<f64> {
        let mut running = ConfidenceTracker::new();
        self.waves
            .iter()
            .map(|w| running.record(w.compliant))
            .collect()
    }

    /// Fraction of waves where the bound was violated.
    #[must_use]
    pub fn violation_rate(&self) -> f64 {
        if self.waves.is_empty() {
            return 0.0;
        }
        self.waves.iter().filter(|w| !w.compliant).count() as f64 / self.waves.len() as f64
    }
}

/// The oracle policy: consults the synchronous twin for the true error a
/// skip would leave in each bounded step's output, and executes exactly
/// when the bound would be violated.
struct OraclePolicy {
    sync_store: DataStore,
    adapt_store: DataStore,
    metric: MetricKind,
    /// Per managed step: its bound and output containers.
    targets: HashMap<StepId, (ErrorBound, Vec<ContainerRef>)>,
}

impl TriggerPolicy for OraclePolicy {
    fn should_trigger(&mut self, _wave: u64, step: StepId, _workflow: &Workflow) -> bool {
        let Some((bound, outputs)) = self.targets.get(&step) else {
            return true;
        };
        let err = measure_divergence(&self.sync_store, &self.adapt_store, outputs, &self.metric);
        bound.is_violated_by(err)
    }
}

/// Measures how far `adapt_store`'s version of `containers` diverges from
/// `sync_store`'s, using `metric`.
fn measure_divergence(
    sync_store: &DataStore,
    adapt_store: &DataStore,
    containers: &[ContainerRef],
    metric: &MetricKind,
) -> f64 {
    let mut worst: f64 = 0.0;
    for c in containers {
        let truth = sync_store.snapshot(c).unwrap_or_default();
        let stale = adapt_store.snapshot(c).unwrap_or_default();
        let diff = truth.diff(&stale);
        let ctx = MetricContext::new(
            truth.len().max(stale.len()),
            stale.iter().filter_map(|(_, v)| v.as_f64()).sum(),
        );
        worst = worst.max(metric.evaluate(&diff, &ctx));
    }
    worst
}

/// Sample Pearson correlation coefficient `r` between two series
/// (the statistic of Fig. 7).
///
/// Returns 0.0 for degenerate inputs (fewer than two points or zero
/// variance).
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "length mismatch");
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx * vy).sqrt()
}

/// The validated bound of a step, or `CoreError::InvalidBound`.
fn bounded(workflow: &Workflow, step: StepId) -> Result<ErrorBound, CoreError> {
    let name = workflow.graph().step_name(step).to_owned();
    let raw = workflow
        .info(step)
        .error_bound()
        .ok_or_else(|| CoreError::InvalidBound {
            step: name.clone(),
            detail: "step declares no error bound".into(),
        })?;
    ErrorBound::new(raw).map_err(|detail| CoreError::InvalidBound { step: name, detail })
}

/// Runs the twin-run evaluation of `policy` over `factory`'s workload.
///
/// `waves` counts *application* waves for SmartFlux runs (the training
/// phase runs beforehand on both twins) and total waves otherwise.
///
/// # Errors
///
/// Propagates workflow execution failures, rejects a factory whose output
/// step is missing or carries an invalid error bound, and returns
/// [`CoreError::TrainingUnfinished`] when a SmartFlux run can build no
/// model after every training extension
/// ([`QodEngine::training_exhausted`]).
pub fn evaluate<F: WorkloadFactory>(
    factory: &F,
    policy: EvalPolicy,
    waves: u64,
    measure_metric: MetricKind,
) -> Result<EvalReport, CoreError> {
    let sync_store = DataStore::new();
    let sync_wf = factory.build(&sync_store);
    let mut sync_sched = Scheduler::new(sync_wf, sync_store.clone(), Box::new(SynchronousPolicy));

    let adapt_store = DataStore::new();
    let adapt_wf = factory.build(&adapt_store);
    let clock_base = adapt_store.clock();

    let output_step = adapt_wf
        .graph()
        .step_id(factory.output_step())
        .ok_or_else(|| CoreError::UnknownStep(factory.output_step().to_owned()))?;
    let output_bound = bounded(&adapt_wf, output_step)?;
    let output_containers: Vec<ContainerRef> = adapt_wf.info(output_step).outputs().to_vec();

    // Managed steps: bounded and not always-run.
    let managed: Vec<StepId> = adapt_wf
        .qod_steps()
        .into_iter()
        .filter(|&id| !adapt_wf.info(id).always_run())
        .collect();

    let mut engine_handle = None;
    let mut telemetry = Telemetry::disabled();
    let (policy_name, trigger): (String, Box<dyn TriggerPolicy>) = match &policy {
        EvalPolicy::Sync => ("sync".into(), Box::new(SynchronousPolicy)),
        EvalPolicy::Random { seed } => ("random".into(), Box::new(RandomSkipPolicy::new(*seed))),
        EvalPolicy::EveryN { n } => (format!("seq{n}"), Box::new(EveryNPolicy::new(*n))),
        EvalPolicy::Oracle => {
            let mut targets = HashMap::new();
            for &id in &managed {
                let info = adapt_wf.info(id);
                let bound = bounded(&adapt_wf, id)?;
                targets.insert(id, (bound, info.outputs().to_vec()));
            }
            (
                "optimal".into(),
                Box::new(OraclePolicy {
                    sync_store: sync_store.clone(),
                    adapt_store: adapt_store.clone(),
                    metric: measure_metric.clone(),
                    targets,
                }),
            )
        }
        EvalPolicy::SmartFlux(config) => {
            telemetry = crate::session::telemetry_for(config)?;
            let mut engine =
                QodEngine::from_workflow(&adapt_wf, adapt_store.clone(), (**config).clone())?;
            engine.set_telemetry(telemetry.clone());
            let shared = SharedEngine::new(engine);
            engine_handle = Some(shared.clone());
            ("smartflux".into(), Box::new(shared))
        }
    };

    let mut adapt_sched = Scheduler::new(adapt_wf, adapt_store.clone(), trigger);
    adapt_sched.set_telemetry(telemetry.clone());

    // Training prologue for SmartFlux: run both twins synchronously. The
    // engine flips itself to the application phase (possibly extending
    // training first); we keep running until it does.
    if let Some(engine) = engine_handle.as_ref() {
        let mut prologue = 0u64;
        while engine.with(|e| matches!(e.phase(), crate::engine::Phase::Training { .. })) {
            if engine.with(QodEngine::training_exhausted) {
                return Err(CoreError::TrainingUnfinished { waves: prologue });
            }
            sync_sched.run_wave()?;
            adapt_sched.run_wave()?;
            prologue += 1;
        }
    }

    // Baseline for the predicted-error series: the output at its last
    // execution.
    let mut predicted_baseline: Snapshot = sync_store
        .snapshot(&output_containers[0])
        .unwrap_or_default();

    let mut records = Vec::with_capacity(waves as usize);
    let mut confidence = ConfidenceTracker::new();

    for _ in 0..waves {
        sync_sched.run_wave()?;
        let outcome = adapt_sched.run_wave()?;

        let measured = measure_divergence(
            &sync_store,
            &adapt_store,
            &output_containers,
            &measure_metric,
        );
        let executed_output = outcome.did_execute(output_step);

        let predicted = {
            let truth = sync_store
                .snapshot(&output_containers[0])
                .unwrap_or_default();
            if executed_output {
                predicted_baseline = truth;
                0.0
            } else {
                let diff = truth.diff(&predicted_baseline);
                let ctx = MetricContext::new(
                    truth.len().max(predicted_baseline.len()),
                    predicted_baseline
                        .iter()
                        .filter_map(|(_, v)| v.as_f64())
                        .sum(),
                );
                measure_metric.evaluate(&diff, &ctx)
            }
        };

        let compliant = !output_bound.is_violated_by(measured);
        confidence.record(compliant);

        let managed_executions = managed
            .iter()
            .filter(|&&id| outcome.did_execute(id))
            .count() as u64;
        let managed_skips = managed
            .iter()
            .filter(|&&id| outcome.skipped.contains(&id))
            .count() as u64;

        records.push(WaveRecord {
            wave: outcome.wave,
            measured_error: measured,
            predicted_error: predicted,
            compliant,
            executed_output,
            managed_executions,
            managed_skips,
        });
    }

    crate::session::publish_store_stats(&telemetry, &adapt_store, clock_base);
    telemetry.flush().map_err(CoreError::Journal)?;
    Ok(EvalReport {
        workload: factory.name().to_owned(),
        policy: policy_name,
        waves: records,
        confidence,
        engine: engine_handle,
        telemetry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SmartFluxSession;
    use smartflux_datastore::Value;
    use smartflux_wms::{FnStep, GraphBuilder, StepContext};

    /// A tiny deterministic workload: a source writing a drifting value and
    /// one bounded step copying it.
    struct Ramp {
        bound: f64,
    }

    impl WorkloadFactory for Ramp {
        fn build(&self, store: &DataStore) -> Workflow {
            let raw = ContainerRef::family("t", "raw");
            let out = ContainerRef::family("t", "out");
            store.ensure_container(&raw).unwrap();
            store.ensure_container(&out).unwrap();

            let mut g = GraphBuilder::new("ramp");
            let feed = g.add_step("feed");
            let copy = g.add_step("copy");
            g.add_edge(feed, copy).unwrap();
            let mut wf = Workflow::new(g.build().unwrap());
            wf.bind(
                feed,
                FnStep::new(|ctx: &StepContext| {
                    let w = ctx.wave() as f64;
                    // Slow drift plus a small oscillation.
                    let v = 100.0 + w + 3.0 * (w / 5.0).sin();
                    ctx.put("t", "raw", "r", "v", Value::from(v))?;
                    Ok(())
                }),
            )
            .source()
            .writes(raw.clone());
            wf.bind(
                copy,
                FnStep::new(|ctx: &StepContext| {
                    let v = ctx.get_f64("t", "raw", "r", "v", 0.0)?;
                    ctx.put("t", "out", "r", "v", Value::from(v))?;
                    Ok(())
                }),
            )
            .reads(raw)
            .writes(out)
            .error_bound(self.bound);
            wf
        }

        fn output_step(&self) -> &str {
            "copy"
        }

        fn name(&self) -> &str {
            "ramp"
        }
    }

    #[test]
    fn sync_policy_has_zero_error_and_full_executions() {
        let report = evaluate(
            &Ramp { bound: 0.05 },
            EvalPolicy::Sync,
            30,
            MetricKind::RelativeError,
        )
        .unwrap();
        assert!(report.waves.iter().all(|w| w.measured_error == 0.0));
        assert!(report.waves.iter().all(|w| w.compliant));
        assert_eq!(report.normalized_executions(), 1.0);
        assert_eq!(report.confidence.confidence(), 1.0);
    }

    #[test]
    fn seq_policy_skips_and_accumulates_error() {
        let report = evaluate(
            &Ramp { bound: 0.0 },
            EvalPolicy::EveryN { n: 3 },
            30,
            MetricKind::RelativeError,
        )
        .unwrap();
        assert!((report.normalized_executions() - 1.0 / 3.0).abs() < 0.05);
        // Skipped waves deviate from the synchronous truth.
        assert!(report.waves.iter().any(|w| w.measured_error > 0.0));
        assert!(report.violation_rate() > 0.0);
    }

    #[test]
    fn oracle_never_violates_and_saves_something() {
        let report = evaluate(
            &Ramp { bound: 0.05 },
            EvalPolicy::Oracle,
            40,
            MetricKind::RelativeError,
        )
        .unwrap();
        assert_eq!(report.violation_rate(), 0.0, "oracle must be perfect");
        assert!(
            report.normalized_executions() < 1.0,
            "the drifting feed is slow enough to allow savings"
        );
    }

    #[test]
    fn smartflux_trains_then_adapts() {
        let config = EngineConfig::new()
            .with_training_waves(60)
            .with_quality_gates(0.5, 0.5)
            .with_seed(9);
        let report = evaluate(
            &Ramp { bound: 0.05 },
            EvalPolicy::SmartFlux(Box::new(config)),
            40,
            MetricKind::RelativeError,
        )
        .unwrap();
        let engine = report.engine.as_ref().expect("smartflux run has an engine");
        assert!(engine.with(|e| e.predictor().is_trained()));
        assert!(engine.with(|e| e.knowledge_base().len() >= 60));
        assert_eq!(report.waves.len(), 40);
        // High compliance expected on this well-behaved feed.
        assert!(report.confidence.confidence() > 0.8);
    }

    #[test]
    fn training_prologue_covers_every_extension() {
        let cases = [
            // Unreachable gates: the engine takes all three 50-wave
            // extensions and enters the application phase after wave 160.
            (
                EngineConfig::new()
                    .with_training_waves(10)
                    .with_quality_gates(1.0, 1.0),
                160,
            ),
            // A one-wave window: the one-row log is refused, and the
            // engine extends training until it can build a model.
            (
                EngineConfig::new()
                    .with_training_waves(1)
                    .with_quality_gates(0.0, 0.0),
                51,
            ),
        ];
        for (config, last_training_wave) in cases {
            let report = evaluate(
                &Ramp { bound: 0.05 },
                EvalPolicy::SmartFlux(Box::new(config.with_seed(9))),
                5,
                MetricKind::RelativeError,
            )
            .unwrap();
            assert_eq!(
                report.waves.first().map(|w| w.wave),
                Some(last_training_wave + 1)
            );
        }
    }

    /// A feed that jumps to infinity every other wave: its impacts are
    /// non-finite, so no model is ever built from its log.
    struct Unbounded;

    impl WorkloadFactory for Unbounded {
        fn build(&self, store: &DataStore) -> Workflow {
            let mut wf = Ramp { bound: 0.05 }.build(store);
            let feed = wf.graph().step_id("feed").unwrap();
            wf.bind(
                feed,
                FnStep::new(|ctx: &StepContext| {
                    let v = if ctx.wave().is_multiple_of(2) {
                        f64::INFINITY
                    } else {
                        1.0
                    };
                    ctx.put("t", "raw", "r", "v", Value::from(v))?;
                    Ok(())
                }),
            )
            .source()
            .writes(ContainerRef::family("t", "raw"));
            wf
        }
        fn output_step(&self) -> &str {
            "copy"
        }
        fn name(&self) -> &str {
            "unbounded"
        }
    }

    /// 5 initial training waves, then three 50-wave extensions whose
    /// builds all fail: training gives up after wave 155.
    const UNBOUNDED_TRAINING_WAVES: u64 = 155;

    fn unbounded_config() -> EngineConfig {
        EngineConfig::new().with_training_waves(5).with_seed(9)
    }

    #[test]
    fn training_that_never_finishes_is_a_typed_error() {
        let err = evaluate(
            &Unbounded,
            EvalPolicy::SmartFlux(Box::new(unbounded_config())),
            5,
            MetricKind::RelativeError,
        )
        .unwrap_err();
        assert!(
            matches!(err, CoreError::TrainingUnfinished { waves } if waves == UNBOUNDED_TRAINING_WAVES),
            "{err}"
        );
    }

    #[test]
    fn a_session_whose_training_never_finishes_returns_a_typed_error() {
        let store = DataStore::new();
        let mut session =
            SmartFluxSession::new(Unbounded.build(&store), store, unbounded_config()).unwrap();
        let err = session.run_training().unwrap_err();
        assert!(
            matches!(err, CoreError::TrainingUnfinished { waves } if waves == UNBOUNDED_TRAINING_WAVES),
            "{err}"
        );
        assert_eq!(session.executed_waves(), UNBOUNDED_TRAINING_WAVES);
        assert!(session.engine().with(QodEngine::training_exhausted));
    }

    #[test]
    fn pearson_basics() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
        assert_eq!(pearson(&[], &[]), 0.0);
    }
}
