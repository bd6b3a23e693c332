//! The user-facing session: store + WMS + engine, wired together.

use std::sync::Arc;

use smartflux_datastore::{DataStore, Timestamp};
use smartflux_telemetry::{names, JsonlSink, Telemetry};
use smartflux_wms::{Scheduler, WaveOutcome, WmsError, Workflow};

use crate::config::EngineConfig;
use crate::diagnostics::Diagnostics;
use crate::engine::{Phase, QodEngine, SharedEngine};
use crate::error::CoreError;
use crate::knowledge::KnowledgeBase;
use crate::predictor::PredictorQuality;

/// A running SmartFlux deployment: a workflow scheduled over a data store
/// with the QoD engine deciding step triggering.
///
/// This is the typical entry point for applications: build a workflow with
/// QoD annotations, create a session, run the training phase, then keep
/// processing waves adaptively.
///
/// # Example
///
/// ```
/// use smartflux::{EngineConfig, SmartFluxSession};
/// use smartflux_datastore::{ContainerRef, DataStore, Value};
/// use smartflux_wms::{FnStep, GraphBuilder, StepContext, Workflow};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let store = DataStore::new();
/// let raw = ContainerRef::family("t", "raw");
/// let out = ContainerRef::family("t", "out");
/// store.ensure_container(&raw)?;
/// store.ensure_container(&out)?;
///
/// let mut g = GraphBuilder::new("demo");
/// let feed = g.add_step("feed");
/// let agg = g.add_step("aggregate");
/// g.add_edge(feed, agg)?;
/// let mut wf = Workflow::new(g.build()?);
/// wf.bind(feed, FnStep::new(|ctx: &StepContext| {
///     let v = 50.0 + (ctx.wave() as f64 / 4.0).sin() * 5.0;
///     ctx.put("t", "raw", "r", "v", Value::from(v))?;
///     Ok(())
/// })).source().writes(raw.clone());
/// wf.bind(agg, FnStep::new(|ctx: &StepContext| {
///     let v = ctx.get_f64("t", "raw", "r", "v", 0.0)?;
///     ctx.put("t", "out", "r", "v", Value::from(v * 2.0))?;
///     Ok(())
/// })).reads(raw).writes(out).error_bound(0.1);
///
/// let config = EngineConfig::new()
///     .with_training_waves(40)
///     .with_quality_gates(0.5, 0.5);
/// let mut session = SmartFluxSession::new(wf, store, config)?;
/// session.run_training()?;          // synchronous phase + model build
/// session.run_waves(20)?;           // adaptive phase
/// assert!(session.executed_waves() >= 60);
/// # Ok(())
/// # }
/// ```
pub struct SmartFluxSession {
    scheduler: Scheduler,
    engine: SharedEngine,
    telemetry: Telemetry,
    store: DataStore,
    /// The store clock when the session was built: `store.writes` is its
    /// growth since.
    clock_base: Timestamp,
}

impl SmartFluxSession {
    /// Creates a session over `workflow` and `store`.
    ///
    /// When [`EngineConfig::telemetry_enabled`] is set, one [`Telemetry`]
    /// handle is shared by the scheduler (wave/step latency, execution
    /// counters) and the engine (impact/predict/train latency, wave-decision
    /// journal); the session itself publishes the store's write count and
    /// lock gauges at wave boundaries. With telemetry off — the default —
    /// every instrumentation site short-circuits on one relaxed atomic load.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoQodSteps`] if the workflow declares no error
    /// bounds, and [`CoreError::Journal`] if
    /// [`EngineConfig::journal_path`] cannot be created.
    pub fn new(
        workflow: Workflow,
        store: DataStore,
        config: EngineConfig,
    ) -> Result<Self, CoreError> {
        let telemetry = telemetry_for(&config)?;
        let clock_base = store.clock();
        let mut engine = QodEngine::from_workflow(&workflow, store.clone(), config)?;
        engine.set_telemetry(telemetry.clone());
        let shared = SharedEngine::new(engine);
        let mut scheduler = Scheduler::new(workflow, store.clone(), Box::new(shared.clone()));
        scheduler.set_telemetry(telemetry.clone());
        let session = Self {
            scheduler,
            engine: shared,
            telemetry,
            store,
            clock_base,
        };
        session.publish_store_stats();
        Ok(session)
    }

    /// Rebuilds a session from the durability checkpoint configured in
    /// `config.durability`, resuming wave processing right after the last
    /// checkpointed wave.
    ///
    /// The store, engine phase, knowledge base, impact trackers, and
    /// confidence counters are all restored exactly as they were at the
    /// checkpoint, and the trained models are refit from the knowledge base
    /// to exactly what they were; the scheduler resumes at the following
    /// wave, re-executing any waves that ran after the checkpoint. Given a
    /// deterministic workflow, the recovered session makes the same
    /// decisions the uninterrupted run would have made.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Durability`] when `config.durability` is unset
    /// ([`DurabilityError::NotConfigured`]), no checkpoint exists yet
    /// ([`DurabilityError::NoCheckpoint`]), or the checkpoint is damaged.
    ///
    /// [`DurabilityError::NotConfigured`]: smartflux_durability::DurabilityError::NotConfigured
    /// [`DurabilityError::NoCheckpoint`]: smartflux_durability::DurabilityError::NoCheckpoint
    pub fn recover(workflow: Workflow, config: EngineConfig) -> Result<Self, CoreError> {
        let (mut engine, store, next_wave) = QodEngine::recover(&workflow, config.clone())?;
        let telemetry = telemetry_for(&config)?;
        let clock_base = store.clock();
        engine.set_telemetry(telemetry.clone());
        if telemetry.is_enabled() {
            telemetry.counter(names::RECOVERIES).incr();
        }
        let shared = SharedEngine::new(engine);
        let mut scheduler = Scheduler::new(workflow, store.clone(), Box::new(shared.clone()));
        scheduler.set_telemetry(telemetry.clone());
        scheduler.resume(next_wave);
        let session = Self {
            scheduler,
            engine: shared,
            telemetry,
            store,
            clock_base,
        };
        session.publish_store_stats();
        Ok(session)
    }

    /// Publishes the store's write count and lock counters.
    ///
    /// Called at construction, after every wave and whenever the
    /// telemetry handle is handed out.
    fn publish_store_stats(&self) {
        publish_store_stats(&self.telemetry, &self.store, self.clock_base);
    }

    /// The post-wave hook, run after every wave — completed or aborted,
    /// since an aborted wave still ends (and commits) in the engine:
    /// refreshes the store gauges and surfaces a durability failure the
    /// engine recorded at the wave boundary (`end_wave` itself cannot
    /// return one). A durability failure outranks the wave's own: a step
    /// failure is retriable, lost data is not.
    fn after_wave(&self, result: Result<WaveOutcome, WmsError>) -> Result<WaveOutcome, CoreError> {
        self.publish_store_stats();
        match self.engine.with_mut(QodEngine::take_durability_error) {
            Some(e) => Err(CoreError::Durability(e)),
            None => Ok(result?),
        }
    }

    /// The session's telemetry handle: metrics snapshot, journal, spans.
    /// Inert (disabled) unless [`EngineConfig::telemetry_enabled`] was set.
    ///
    /// Publishes the store stats first, so a snapshot counts writes made
    /// straight into the store since the last wave boundary too (a host's
    /// ingest between waves, say).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        self.publish_store_stats();
        &self.telemetry
    }

    /// The engine's current phase.
    #[must_use]
    pub fn phase(&self) -> Phase {
        self.engine.with(QodEngine::phase)
    }

    /// Runs waves until the engine completes its training (and test) phase
    /// and enters the application phase. Returns the number of waves run.
    ///
    /// # Errors
    ///
    /// Propagates workflow failures, and returns
    /// [`CoreError::TrainingUnfinished`] with the waves this call ran once
    /// no model could be built after every training extension
    /// ([`QodEngine::training_exhausted`]).
    pub fn run_training(&mut self) -> Result<u64, CoreError> {
        let mut ran = 0;
        while matches!(self.phase(), Phase::Training { .. }) {
            if self.engine.with(QodEngine::training_exhausted) {
                return Err(CoreError::TrainingUnfinished { waves: ran });
            }
            self.run_wave()?;
            ran += 1;
        }
        Ok(ran)
    }

    /// Runs one wave under the current phase.
    ///
    /// # Errors
    ///
    /// Propagates workflow failures, and durability failures of the wave's
    /// commit or checkpoint — the latter first when a wave has both.
    pub fn run_wave(&mut self) -> Result<WaveOutcome, CoreError> {
        let result = self.scheduler.run_wave();
        self.after_wave(result)
    }

    /// Runs `count` waves.
    ///
    /// # Errors
    ///
    /// Stops at the first failing wave.
    pub fn run_waves(&mut self, count: u64) -> Result<Vec<WaveOutcome>, CoreError> {
        // Not preallocated: see `Scheduler::run_waves`.
        let mut out = Vec::new();
        for _ in 0..count {
            out.push(self.run_wave()?);
        }
        Ok(out)
    }

    /// Number of waves executed so far.
    #[must_use]
    pub fn executed_waves(&self) -> u64 {
        self.scheduler.stats().waves()
    }

    /// The scheduler (statistics, store, wave clock).
    #[must_use]
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Test-phase quality of the trained model, if training completed.
    #[must_use]
    pub fn predictor_quality(&self) -> Option<PredictorQuality> {
        self.engine.with(|e| e.predictor().quality())
    }

    /// A copy of the knowledge base collected during training.
    #[must_use]
    pub fn knowledge_base(&self) -> KnowledgeBase {
        self.engine.with(|e| e.knowledge_base().clone())
    }

    /// A snapshot of the per-wave engine diagnostics (impacts, errors,
    /// decisions), taken under the engine lock in O(chunks): it copies one
    /// pointer per chunk of the history, not the rows.
    #[must_use]
    pub fn diagnostics(&self) -> Diagnostics {
        self.engine.with(|e| e.diagnostics().clone())
    }

    /// Shared handle to the engine for advanced introspection.
    #[must_use]
    pub fn engine(&self) -> SharedEngine {
        self.engine.clone()
    }

    /// Requests on-demand retraining for `waves` waves starting at the next
    /// wave (§3.1: "on-demand, useful if data patterns start to change
    /// suddenly"). Retraining "regularly from time to time" is this call on
    /// the caller's own schedule.
    pub fn request_training(&mut self, waves: usize) {
        let next = self.scheduler.next_wave();
        self.engine.with_mut(|e| e.request_training(next, waves));
    }

    /// Checkpoints store and engine state at the last completed wave,
    /// regardless of the periodic checkpoint interval. Used by orderly
    /// shutdown paths (the network host's drain) so [`recover`] resumes
    /// exactly where processing stopped. Returns `false` when durability
    /// is not configured or no wave has run yet.
    ///
    /// [`recover`]: Self::recover
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Durability`] if the checkpoint write fails.
    pub fn checkpoint(&mut self) -> Result<bool, CoreError> {
        let last_wave = self.scheduler.next_wave().saturating_sub(1);
        self.engine.with_mut(|e| e.checkpoint_at(last_wave))
    }
}

/// Builds the telemetry handle `config` asks for: a disabled (inert) handle
/// when telemetry is off, otherwise an enabled handle, with the optional
/// JSONL journal sink attached either way. Shared by
/// [`SmartFluxSession::new`] and the evaluation harness.
pub(crate) fn telemetry_for(config: &EngineConfig) -> Result<Telemetry, CoreError> {
    let telemetry = if config.telemetry_enabled {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    if let Some(path) = &config.journal_path {
        let sink = JsonlSink::create(path).map_err(CoreError::Journal)?;
        telemetry.add_journal_sink(Arc::new(sink));
    }
    Ok(telemetry)
}

/// Publishes a store's traffic: `store.writes` is topped up to the clock's
/// growth since `clock_base` (the clock ticks once per applied write), and
/// the lock counters ([`ShardStats`]) become `store.*` gauges — gauges
/// (not counters) because the stats are already cumulative. Shared by the
/// session (at construction and every wave boundary) and the evaluation
/// harness (at the end of a run).
///
/// [`ShardStats`]: smartflux_datastore::ShardStats
pub(crate) fn publish_store_stats(telemetry: &Telemetry, store: &DataStore, clock_base: Timestamp) {
    if !telemetry.is_enabled() {
        return;
    }
    let writes = telemetry.counter(names::STORE_WRITES);
    let grown = store.clock().saturating_sub(clock_base);
    writes.add(grown.saturating_sub(writes.get()));
    let stats = store.shard_stats();
    telemetry
        .gauge(names::STORE_SHARD_READ_CONTENTION)
        .set(i64::try_from(stats.read_contention).unwrap_or(i64::MAX));
    telemetry
        .gauge(names::STORE_SHARD_WRITE_CONTENTION)
        .set(i64::try_from(stats.write_contention).unwrap_or(i64::MAX));
    telemetry
        .gauge(names::STORE_QUIESCES)
        .set(i64::try_from(stats.quiesces).unwrap_or(i64::MAX));
}

impl Drop for SmartFluxSession {
    fn drop(&mut self) {
        // Journal sinks buffer; make sure records reach disk even when the
        // caller never flushes explicitly. A failure here already bumped
        // `telemetry.journal_errors`; Drop cannot propagate it, so it is
        // loud in debug builds and counted (not swallowed) in release.
        let flushed = self.telemetry.flush();
        debug_assert!(
            flushed.is_ok(),
            "journal flush failed while dropping SmartFluxSession: {flushed:?}"
        );
    }
}

impl std::fmt::Debug for SmartFluxSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmartFluxSession")
            .field("waves", &self.executed_waves())
            .field("phase", &self.phase())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartflux_datastore::{ContainerRef, Value};
    use smartflux_wms::{FnStep, GraphBuilder, StepContext};

    fn session(training_waves: usize) -> SmartFluxSession {
        session_with_bound(training_waves, 0.05)
    }

    /// `feed → agg`: the feed writes `100 + wave`, `agg` copies it under
    /// `max_epsilon`.
    fn session_with_bound(training_waves: usize, max_epsilon: f64) -> SmartFluxSession {
        let store = DataStore::new();
        let raw = ContainerRef::family("t", "raw");
        let out = ContainerRef::family("t", "out");
        store.ensure_container(&raw).unwrap();
        store.ensure_container(&out).unwrap();

        let mut g = GraphBuilder::new("demo");
        let feed = g.add_step("feed");
        let agg = g.add_step("agg");
        g.add_edge(feed, agg).unwrap();
        let mut wf = Workflow::new(g.build().unwrap());
        wf.bind(
            feed,
            FnStep::new(|ctx: &StepContext| {
                let w = ctx.wave() as f64;
                ctx.put("t", "raw", "r", "v", Value::from(100.0 + w))?;
                Ok(())
            }),
        )
        .source()
        .writes(raw.clone());
        wf.bind(
            agg,
            FnStep::new(|ctx: &StepContext| {
                let v = ctx.get_f64("t", "raw", "r", "v", 0.0)?;
                ctx.put("t", "out", "r", "v", Value::from(v))?;
                Ok(())
            }),
        )
        .reads(raw)
        .writes(out)
        .error_bound(max_epsilon);

        let config = EngineConfig::new()
            .with_training_waves(training_waves)
            .with_quality_gates(0.3, 0.3)
            .with_seed(1);
        SmartFluxSession::new(wf, store, config).unwrap()
    }

    #[test]
    fn training_phase_completes() {
        let mut s = session(30);
        assert!(matches!(s.phase(), Phase::Training { .. }));
        let ran = s.run_training().unwrap();
        assert!(ran >= 30);
        assert_eq!(s.phase(), Phase::Application);
        assert!(s.predictor_quality().is_some());
        assert_eq!(s.knowledge_base().len() as u64, ran);
    }

    #[test]
    fn application_waves_record_diagnostics() {
        let mut s = session(25);
        s.run_training().unwrap();
        s.run_waves(10).unwrap();
        let diags = s.diagnostics();
        let app_waves = diags.iter().filter(|d| !d.training).count();
        assert_eq!(app_waves, 10);
        let train_waves = diags.iter().filter(|d| d.training).count();
        assert!(train_waves >= 25);
        // Training diagnostics carry simulated errors; application ones do not.
        assert!(diags
            .iter()
            .filter(|d| d.training)
            .all(|d| d.errors().len() == 1));
        assert!(diags
            .iter()
            .filter(|d| !d.training)
            .all(|d| d.errors().is_empty()));
    }

    #[test]
    fn shard_gauges_are_published_with_telemetry_on() {
        let store = DataStore::new();
        let raw = ContainerRef::family("t", "raw");
        let out = ContainerRef::family("t", "out");
        store.ensure_container(&raw).unwrap();
        store.ensure_container(&out).unwrap();
        let mut g = GraphBuilder::new("demo");
        let feed = g.add_step("feed");
        let mut wf = Workflow::new(g.build().unwrap());
        wf.bind(
            feed,
            FnStep::new(|ctx: &StepContext| {
                ctx.put("t", "raw", "r", "v", Value::from(ctx.wave() as f64))?;
                Ok(())
            }),
        )
        .source()
        .writes(raw)
        .error_bound(0.1);
        let config = EngineConfig::new()
            .with_training_waves(5)
            .with_telemetry(true)
            .with_seed(1);
        let mut s = SmartFluxSession::new(wf, store, config).unwrap();
        s.run_waves(3).unwrap();
        let snap = s.telemetry().snapshot();
        assert!(snap
            .gauges
            .contains_key(smartflux_telemetry::names::STORE_SHARD_WRITE_CONTENTION));
        // Single-threaded waves never contend on the store lock.
        assert_eq!(
            snap.gauge(smartflux_telemetry::names::STORE_SHARD_WRITE_CONTENTION),
            0
        );
    }

    #[test]
    fn aborted_wave_runs_the_post_wave_hook() {
        // Wave 3 aborts on a step failure *and* its wave-boundary checkpoint
        // fails. That wave must report the durability error (it outranks
        // the retriable step failure) and refresh the store gauges; wave 4
        // must not inherit it.
        use smartflux_durability::{DurabilityOptions, CHECKPOINT_FILE};
        let dir = std::env::temp_dir().join(format!("sf-session-abort-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DataStore::new();
        let raw = ContainerRef::family("t", "raw");
        store.ensure_container(&raw).unwrap();
        let mut g = GraphBuilder::new("demo");
        let feed = g.add_step("feed");
        let mut wf = Workflow::new(g.build().unwrap());
        wf.bind(
            feed,
            FnStep::new(|ctx: &StepContext| {
                ctx.put("t", "raw", "r", "v", Value::from(ctx.wave() as f64))?;
                if ctx.wave() == 3 {
                    return Err(smartflux_wms::StepError::msg("wave 3 breaks"));
                }
                Ok(())
            }),
        )
        .source()
        .writes(raw)
        .error_bound(0.1);
        let config = EngineConfig::new()
            .with_training_waves(10)
            .with_telemetry(true)
            .with_durability(DurabilityOptions::new(&dir).with_checkpoint_interval(1));
        let mut s = SmartFluxSession::new(wf, store, config).unwrap();
        s.run_waves(2).unwrap();

        // Plant the failure: a directory in place of the checkpoint's spare
        // (the file of the checkpoint before the last) makes the next
        // checkpoint write fail.
        let squatter = dir.join(format!("{CHECKPOINT_FILE}.tmp"));
        std::fs::remove_file(&squatter).unwrap();
        std::fs::create_dir(&squatter).unwrap();
        let err = s.run_wave().unwrap_err();
        assert!(matches!(err, CoreError::Durability(_)), "got {err}");
        assert_eq!(s.scheduler().stats().waves_aborted(), 1);
        // The failed checkpoint still quiesced the store to export it.
        assert_eq!(
            s.telemetry().snapshot().gauge(names::STORE_QUIESCES),
            i64::try_from(s.store.shard_stats().quiesces).unwrap()
        );

        std::fs::remove_dir(&squatter).unwrap();
        s.run_wave().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_waves_stops_at_a_failure_whatever_its_count() {
        let store = DataStore::new();
        let raw = ContainerRef::family("t", "raw");
        store.ensure_container(&raw).unwrap();
        let mut g = GraphBuilder::new("demo");
        let feed = g.add_step("feed");
        let mut wf = Workflow::new(g.build().unwrap());
        wf.bind(
            feed,
            FnStep::new(|_: &StepContext| Err(smartflux_wms::StepError::msg("broke"))),
        )
        .source()
        .writes(raw)
        .error_bound(0.1);
        let mut s = SmartFluxSession::new(wf, store, EngineConfig::new()).unwrap();
        assert!(matches!(
            s.run_waves(u64::MAX),
            Err(CoreError::Workflow(WmsError::StepFailed { wave: 1, .. }))
        ));
    }

    #[test]
    fn retraining_can_be_requested() {
        let mut s = session(20);
        s.run_training().unwrap();
        assert_eq!(s.phase(), Phase::Application);
        s.request_training(15);
        assert!(matches!(s.phase(), Phase::Training { .. }));
        let ran = s.run_training().unwrap();
        assert!(ran >= 15);
        assert_eq!(s.phase(), Phase::Application);
    }

    #[test]
    fn retraining_measures_error_from_the_last_execution() {
        let mut s = session_with_bound(20, 0.5);
        s.run_training().unwrap();
        s.run_waves(200).unwrap();
        s.request_training(10);
        s.run_wave().unwrap();
        let diagnostics = s.diagnostics();
        let first = diagnostics.last().unwrap();
        assert!(first.training);
        // `agg` last executed a few waves ago and its output has grown by
        // a few percent since. Measured against where the previous
        // training phase left its baseline, 200 waves back, ε saturates
        // at 1 and the example reads "must execute".
        assert!(
            first.errors()[0] > 0.0 && first.errors()[0] < 0.5,
            "ε {}",
            first.errors()[0]
        );
        assert_eq!(first.decisions, vec![false]);
    }

    #[test]
    fn failed_quality_gates_extend_training() {
        // Impossible gates: the engine must extend training the configured
        // number of times, then enter the application phase anyway with
        // quality_met = false.
        let store = DataStore::new();
        let raw = ContainerRef::family("t", "raw");
        let out = ContainerRef::family("t", "out");
        store.ensure_container(&raw).unwrap();
        store.ensure_container(&out).unwrap();
        let mut g = GraphBuilder::new("noisy");
        let feed = g.add_step("feed");
        let agg = g.add_step("agg");
        g.add_edge(feed, agg).unwrap();
        let mut wf = Workflow::new(g.build().unwrap());
        wf.bind(
            feed,
            FnStep::new(|ctx: &StepContext| {
                // An uncorrelated feed: labels are noise, gates cannot pass.
                let w = ctx.wave();
                let v = ((w.wrapping_mul(2_654_435_761)) % 997) as f64;
                ctx.put("t", "raw", "r", "v", Value::from(v))?;
                Ok(())
            }),
        )
        .source()
        .writes(raw.clone());
        wf.bind(
            agg,
            FnStep::new(|ctx: &StepContext| {
                let v = ctx.get_f64("t", "raw", "r", "v", 0.0)?;
                ctx.put("t", "out", "r", "v", Value::from(v))?;
                Ok(())
            }),
        )
        .reads(raw)
        .writes(out)
        .error_bound(0.1);

        let config = EngineConfig::new()
            .with_training_waves(20)
            .with_quality_gates(1.0, 1.0) // unattainable on noise
            .with_seed(3);
        let mut s = SmartFluxSession::new(wf, store, config).unwrap();
        let ran = s.run_training().unwrap();
        // 20 initial + 3 extensions × 50.
        assert_eq!(ran, 170);
        assert_eq!(s.phase(), Phase::Application);
        assert!(
            !s.engine().with(|e| e.quality_met()),
            "impossible gates cannot be met"
        );
    }

    #[test]
    fn unknown_step_override_is_rejected() {
        let store = DataStore::new();
        let raw = ContainerRef::family("t", "raw");
        store.ensure_container(&raw).unwrap();
        let mut g = GraphBuilder::new("demo");
        let feed = g.add_step("feed");
        let mut wf = Workflow::new(g.build().unwrap());
        wf.bind(feed, FnStep::new(|_: &StepContext| Ok(())))
            .source()
            .writes(raw)
            .error_bound(0.1);
        let config = EngineConfig::new().with_step_spec("tpyo", crate::QodSpec::default());
        let err = SmartFluxSession::new(wf, store, config).unwrap_err();
        assert!(err.to_string().contains("unknown step `tpyo`"));
    }

    #[test]
    fn workflow_without_bounds_is_rejected() {
        let store = DataStore::new();
        let mut g = GraphBuilder::new("plain");
        let a = g.add_step("a");
        let mut wf = Workflow::new(g.build().unwrap());
        wf.bind(a, FnStep::new(|_: &StepContext| Ok(()))).source();
        let err = SmartFluxSession::new(wf, store, EngineConfig::new()).unwrap_err();
        assert!(matches!(err, CoreError::NoQodSteps));
    }
}
