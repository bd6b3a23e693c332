//! The QoD Engine: SmartFlux's decision core.
//!
//! The engine implements the paper's two operating modes (§4.1):
//!
//! - **training mode** — the workflow runs synchronously while the engine
//!   computes, per wave and per QoD step, the input impact `ι` and the
//!   *simulated* output error `ε` (what the error would be had the step been
//!   skipped since its last *virtual* execution), appending
//!   `(ι, ε > maxε)` examples to the [`KnowledgeBase`]; when enough waves
//!   were observed it builds a classification model and assesses it with
//!   its out-of-bag votes (the test phase), extending training if quality
//!   gates fail or the test phase scored nothing;
//! - **execution (application) mode** — at each step's scheduling point the
//!   engine computes the current impact vector, queries the [`Predictor`],
//!   and triggers the step only when the model predicts its error bound
//!   would otherwise be exceeded.
//!
//! The engine plugs into the WMS as a [`TriggerPolicy`] (the paper's "WMS
//! Adaptation" + notification scheme).
//!
//! **Graceful degradation.** When the predictor is unavailable, or a step
//! failure is reported via [`TriggerPolicy::step_failed`], the engine falls
//! back to synchronous (always-trigger) execution for the affected steps —
//! the failed step and its QoD descendants — until they complete a wave
//! again. Each such decision increments the `engine.sdf_fallbacks` counter.
//! Training waves polluted by a failure contribute no knowledge-base
//! example and no confidence sample.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use smartflux_datastore::{ContainerRef, DataStore, Value, WatchList};
use smartflux_durability::codec::{self, FrameRead};
use smartflux_durability::{read_checkpoint, Checkpointer, DurabilityError};
use smartflux_ml::StepRule;
use smartflux_telemetry::{names, GroundTruth, QodStep, Telemetry, WaveDiagnostics};
use smartflux_wms::{StepId, TriggerPolicy, Workflow};

use crate::confidence::ConfidenceTracker;
use crate::config::EngineConfig;
use crate::diagnostics::Diagnostics;
use crate::error::CoreError;
use crate::knowledge::KnowledgeBase;
use crate::metric::{MetricContext, MetricFn, MetricKind};
use crate::predictor::{ModelKind, Predictor};
use crate::qod::{AccumulationMode, ErrorBound, QodSpec};

/// Which mode the engine is operating in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Synchronous execution while collecting training examples; the value
    /// is the wave at which training is scheduled to end.
    Training {
        /// Last training wave (inclusive).
        until_wave: u64,
    },
    /// Adaptive execution driven by the trained predictor.
    Application,
}

/// State tracked per monitored container of a QoD step: an input (the
/// step's impact metric) or, in training mode, an output (its error metric).
///
/// The previous state the metric compares against is a *mark* on the
/// store's change set `change_set` in the engine's [`WatchList`]: the
/// step's last (virtual or actual) execution under
/// [`AccumulationMode::Cancel`], the end of the previous wave under
/// [`AccumulationMode::Accumulate`]. Only training reads an output's
/// error, so the application phase pauses the outputs' change sets
/// ([`DataStore::pause_changes`]), and the inputs' of a step it does not
/// monitor; a fresh training phase reopens them.
struct Tracker {
    change_set: usize,
    container: ContainerRef,
    /// The metric's accumulator, reset and reused by every evaluation.
    metric: Box<dyn MetricFn>,
    /// `Σ x'` over the container at the mark, kept only for metrics that
    /// read it.
    previous_state_sum: Option<f64>,
    /// Metric value accumulated since the last execution (Accumulate mode).
    accumulated: f64,
}

/// How many times a training phase is extended by [`EXTENSION_WAVES`]
/// when its model build fails or misses the quality gates.
const MAX_TRAINING_EXTENSIONS: usize = 3;

/// Waves each training extension adds.
const EXTENSION_WAVES: u64 = 50;

/// `Σ x'` of an empty container: the identity `Iterator::sum` starts from,
/// so summing nothing yields the same bits here as it does there.
const EMPTY_SUM: f64 = -0.0;

impl Tracker {
    fn new(change_set: usize, container: &ContainerRef, kind: &MetricKind) -> Self {
        Self {
            change_set,
            container: container.clone(),
            metric: kind.instantiate(),
            previous_state_sum: kind.reads_previous_state_sum().then_some(EMPTY_SUM),
            accumulated: 0.0,
        }
    }

    /// The metric over everything that changed since the mark: the paper's
    /// `update(new, old)` once per changed cell (§4.2), streamed under the
    /// store's lock.
    fn since_mark(&mut self, store: &DataStore, list: WatchList) -> f64 {
        self.metric.reset();
        let metric = self.metric.as_mut();
        let total_elements =
            store.stream_changes(list, self.change_set, |new, old| metric.update(new, old));
        self.metric.compute(&MetricContext::new(
            total_elements,
            self.previous_state_sum.unwrap_or(EMPTY_SUM),
        ))
    }

    /// The metric since the step's last execution.
    fn evaluate(&mut self, mode: AccumulationMode, store: &DataStore, list: WatchList) -> f64 {
        let since_mark = self.since_mark(store, list);
        match mode {
            AccumulationMode::Cancel => since_mark,
            AccumulationMode::Accumulate => self.accumulated + since_mark,
        }
    }

    /// Moves the mark to the container's current state.
    fn mark(&mut self, store: &DataStore, list: WatchList) {
        store.mark_changes(list, self.change_set, Vec::new());
        if let Some(sum) = &mut self.previous_state_sum {
            // One ordered pass over the live cells: at the mark the change
            // set is empty, so the container *is* the previous state.
            *sum = store
                .fold_cells(&self.container, EMPTY_SUM, |sum, _, _, value| {
                    value.as_f64().map_or(sum, |x| sum + x)
                })
                .unwrap_or(EMPTY_SUM);
        }
    }

    /// The step executed (actually or virtually): the metric restarts from
    /// the current container state. Accumulate-mode marks follow the wave
    /// boundary instead, so there only the accumulated value restarts.
    fn restart(&mut self, mode: AccumulationMode, store: &DataStore, list: WatchList) {
        if mode == AccumulationMode::Cancel {
            self.mark(store, list);
        }
        self.accumulated = 0.0;
    }

    /// A wave ended under Accumulate mode: what changed during it joins the
    /// accumulated value, and the next wave's changes count from here.
    fn roll_wave(&mut self, store: &DataStore, list: WatchList) {
        self.accumulated += self.since_mark(store, list);
        self.mark(store, list);
    }

    /// Reopens the change set, marked at the container's current state,
    /// with nothing accumulated: the output error of a fresh training
    /// phase counts from here.
    fn reopen(&mut self, store: &DataStore, list: WatchList) {
        self.mark(store, list);
        self.accumulated = 0.0;
    }
}

/// Everything the engine tracks for one QoD-managed step.
struct QodStepState {
    bound: ErrorBound,
    spec: QodSpec,
    inputs: Vec<Tracker>,
    outputs: Vec<Tracker>,
    /// Whether the step's ι is measured. An application phase stops
    /// measuring a Cancel-mode step whose rule runs it at every ι: no
    /// decision depends on its ι, so its input change sets pause, and
    /// `request_training` reopens them.
    monitored: bool,
}

/// The QoD Engine. Usually driven through [`SmartFluxSession`]; constructed
/// directly only for fine-grained control.
///
/// [`SmartFluxSession`]: crate::SmartFluxSession
pub struct QodEngine {
    store: DataStore,
    config: EngineConfig,
    steps: Vec<QodStepState>,
    /// Name and `maxε` of each QoD step, in the order of `steps`: the
    /// session constants every decision row is indexed by.
    qod_steps: Arc<[QodStep]>,
    index_of: HashMap<StepId, usize>,
    phase: Phase,
    kb: KnowledgeBase,
    predictor: Predictor,
    /// The store's change sets the trackers read, numbered in tracker
    /// order: per step its inputs, then its outputs.
    changes: WatchList,
    /// Latest computed impact per QoD step (the classifier feature vector).
    current_impacts: Vec<f64>,
    /// Decisions of the current wave (diagnostics).
    current_decisions: Vec<bool>,
    /// Per-container impacts of the step being evaluated, before combining.
    container_impacts: Vec<f64>,
    /// Per-step running bound-compliance confidence (Fig. 10), updated on
    /// waves with ground truth (training) and carried into their rows.
    confidence: Vec<ConfidenceTracker>,
    telemetry: Telemetry,
    diagnostics: Diagnostics,
    training_extensions_used: usize,
    quality_met: bool,
    /// Application waves run since the last (re)training: the model's age,
    /// reported as `qod.model_age_waves`.
    application_waves_since_training: u64,
    /// Graceful degradation: QoD steps forced back to synchronous (always
    /// trigger) execution because they — or an upstream step — failed.
    /// Cleared per step once it completes a wave again.
    sdf_fallback: Vec<bool>,
    /// Whether any step failed during the current wave; a failed wave has no
    /// trustworthy ground truth, so training examples from it are dropped.
    failed_this_wave: bool,
    /// Steps the scheduler deferred this wave (workflow-wide), carried into
    /// the wave's row.
    deferred_this_wave: u64,
    /// The checkpointer, when [`EngineConfig::durability`] is set:
    /// periodic checkpoints of store and engine state.
    durability: Option<Checkpointer>,
    /// A checkpoint failure raised inside `end_wave` (which cannot
    /// return errors); surfaced by the session on the next wave call.
    durability_error: Option<DurabilityError>,
    /// Size of the last [`export_state`](Self::export_state) blob.
    exported_len: Cell<usize>,
}

impl QodEngine {
    /// Builds an engine for `workflow`, reading each step's error bound and
    /// container annotations.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoQodSteps`] if no step declares an error bound,
    /// and [`CoreError::Ml`] with
    /// [`MlError::InvalidParameter`](smartflux_ml::MlError::InvalidParameter)
    /// for a forest no model could be built from.
    pub fn from_workflow(
        workflow: &Workflow,
        store: DataStore,
        config: EngineConfig,
    ) -> Result<Self, CoreError> {
        let qod_ids = workflow.qod_steps();
        if qod_ids.is_empty() {
            return Err(CoreError::NoQodSteps);
        }
        config.model.validate()?;

        // Guard against typos: every per-step override must name a step
        // that exists in the workflow.
        for name in config.per_step_specs.keys() {
            if workflow.graph().step_id(name).is_none() {
                return Err(CoreError::UnknownStep(name.clone()));
            }
        }

        let mut steps = Vec::with_capacity(qod_ids.len());
        let mut qod_steps = Vec::with_capacity(qod_ids.len());
        let mut index_of = HashMap::new();
        let mut trackers = 0;
        for (idx, &id) in qod_ids.iter().enumerate() {
            let info = workflow.info(id);
            let name = workflow.graph().step_name(id).to_owned();
            let raw = info.error_bound().ok_or_else(|| CoreError::InvalidBound {
                step: name.clone(),
                detail: "step is QoD-managed but declares no bound".into(),
            })?;
            let bound = ErrorBound::new(raw).map_err(|detail| CoreError::InvalidBound {
                step: name.clone(),
                detail,
            })?;
            let spec = config
                .per_step_specs
                .get(&name)
                .cloned()
                .unwrap_or_else(|| config.default_spec.clone());
            let mut tracker = |c: &ContainerRef, kind: &MetricKind| {
                let tracker = Tracker::new(trackers, c, kind);
                trackers += 1;
                tracker
            };
            let inputs = info
                .inputs()
                .iter()
                .map(|c| tracker(c, &spec.impact))
                .collect();
            let outputs = info
                .outputs()
                .iter()
                .map(|c| tracker(c, &spec.error))
                .collect();
            qod_steps.push(QodStep {
                name,
                max_epsilon: bound.value(),
            });
            steps.push(QodStepState {
                bound,
                spec,
                inputs,
                outputs,
                monitored: true,
            });
            index_of.insert(id, idx);
        }
        // Checkpoints only: recovery re-executes the waves past the
        // checkpoint rather than replaying their writes.
        let durability = config
            .durability
            .clone()
            .map(Checkpointer::open)
            .transpose()
            .map_err(CoreError::Durability)?;

        let step_names: Vec<String> = qod_steps.iter().map(|s| s.name.clone()).collect();
        let mut predictor = Predictor::new(config.model.clone(), config.seed);
        let n = steps.len();

        // A training set given beforehand (§3.2) lets the engine start in
        // the application phase directly.
        let mut phase = Phase::Training {
            until_wave: config.training_waves as u64,
        };
        let mut quality_met = false;
        let kb = if let Some(initial) = config.initial_knowledge.clone() {
            if initial.step_names() != step_names.as_slice() {
                return Err(CoreError::ShapeMismatch {
                    expected: step_names.len(),
                    found: initial.step_names().len(),
                });
            }
            let quality = predictor.train(&initial)?;
            quality_met =
                quality.accuracy >= config.min_accuracy && quality.recall >= config.min_recall;
            phase = Phase::Application;
            initial
        } else {
            KnowledgeBase::new(step_names)
        };

        // Opened last, so a refused engine leaves its store unwatched. The
        // store folds every write to a watched container into the change
        // sets over it; each opens marked at the empty container, so the
        // cells stored now count as inserted until the first mark.
        let changes = store.watch_list();
        for tracker in steps.iter().flat_map(|s| s.inputs.iter().chain(&s.outputs)) {
            store.watch(changes, &tracker.container, Some(tracker.change_set));
        }

        let mut engine = Self {
            store,
            config,
            steps,
            qod_steps: qod_steps.into(),
            index_of,
            phase,
            kb,
            predictor,
            changes,
            current_impacts: vec![0.0; n],
            current_decisions: vec![true; n],
            container_impacts: Vec::new(),
            confidence: vec![ConfidenceTracker::new(); n],
            telemetry: Telemetry::disabled(),
            diagnostics: Diagnostics::default(),
            training_extensions_used: 0,
            quality_met,
            application_waves_since_training: 0,
            sdf_fallback: vec![false; n],
            failed_this_wave: false,
            deferred_this_wave: 0,
            durability,
            durability_error: None,
            exported_len: Cell::new(0),
        };
        if engine.phase == Phase::Application {
            engine.enter_application();
        }
        Ok(engine)
    }

    /// Restores an engine (and its data store) from the latest durability
    /// checkpoint under [`EngineConfig::durability`].
    ///
    /// Recovery is **checkpoint-anchored**: the store and the full engine
    /// state (phase, knowledge base, impact trackers, confidence counters,
    /// and the predictor, refit from the knowledge base) are restored
    /// exactly as they were at the end of the checkpointed wave `c`, and
    /// the returned next wave is `c + 1`.
    /// Waves after `c` that ran before the crash re-execute and, because
    /// every engine input is deterministic, re-produce the decisions of
    /// the uninterrupted run. A session logs no store mutation, so there
    /// is no log tail to replay or discard.
    ///
    /// Returns the engine, the recovered store, and the wave to resume at.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Durability`] when no durability directory is
    /// configured, no checkpoint exists, or the checkpoint fails
    /// validation; shape errors if `workflow` does not match the
    /// checkpointed workflow.
    pub fn recover(
        workflow: &Workflow,
        mut config: EngineConfig,
    ) -> Result<(Self, DataStore, u64), CoreError> {
        let options = config
            .durability
            .clone()
            .ok_or(CoreError::Durability(DurabilityError::NotConfigured))?;
        let checkpoint = read_checkpoint(options.dir())
            .map_err(CoreError::Durability)?
            .ok_or_else(|| {
                CoreError::Durability(DurabilityError::NoCheckpoint(options.dir().to_path_buf()))
            })?;
        let store = DataStore::from_state(checkpoint.store).map_err(CoreError::Store)?;
        // Any supplied initial knowledge would train a model that the
        // recovered predictor immediately replaces; skip it.
        config.initial_knowledge = None;
        let mut engine = Self::from_workflow(workflow, store.clone(), config)?;
        engine.import_state(&checkpoint.engine)?;
        Ok((engine, store, checkpoint.wave + 1))
    }

    /// Takes (and clears) a durability error raised during `end_wave`.
    pub fn take_durability_error(&mut self) -> Option<DurabilityError> {
        self.durability_error.take()
    }

    /// Writes a checkpoint for `wave` immediately, off the configured
    /// interval — the host shutdown path uses this so a drained session
    /// resumes at its final wave instead of replaying from the last
    /// periodic checkpoint. Returns `false` (without touching disk) when
    /// durability is not configured or no wave has completed yet.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Durability`] if the checkpoint write fails.
    pub fn checkpoint_at(&mut self, wave: u64) -> Result<bool, CoreError> {
        let Some(checkpointer) = &self.durability else {
            return Ok(false);
        };
        if wave == 0 {
            return Ok(false);
        }
        checkpointer
            .checkpoint(wave, &self.store, self.export_state())
            .map_err(CoreError::Durability)?;
        Ok(true)
    }

    /// The engine's current phase.
    #[must_use]
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Names of the QoD-managed steps, in feature/label order.
    #[must_use]
    pub fn qod_step_names(&self) -> Vec<&str> {
        self.qod_steps.iter().map(|s| s.name.as_str()).collect()
    }

    /// Whether QoD step `j`'s ι is measured: `false` in an application
    /// phase whose rule for the Cancel-mode step `j` runs it at every ι,
    /// where its rows carry NaN for ι; `true` otherwise, and for an
    /// unknown index.
    #[must_use]
    pub fn monitored(&self, j: usize) -> bool {
        self.steps.get(j).is_none_or(|s| s.monitored)
    }

    /// The accumulated training log.
    #[must_use]
    pub fn knowledge_base(&self) -> &KnowledgeBase {
        &self.kb
    }

    /// The predictor (trained after the training phase completes).
    #[must_use]
    pub fn predictor(&self) -> &Predictor {
        &self.predictor
    }

    /// Per-wave diagnostics collected so far; a clone is a snapshot
    /// that copies one pointer per chunk.
    #[must_use]
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.diagnostics
    }

    /// Whether training has given up: the model build after the last
    /// training extension failed too, so no model can be built from what
    /// the workload produces. The engine keeps extending training if it is
    /// driven on; [`SmartFluxSession::run_training`] and the evaluation's
    /// training prologue stop here with
    /// [`CoreError::TrainingUnfinished`].
    ///
    /// [`SmartFluxSession::run_training`]: crate::SmartFluxSession::run_training
    #[must_use]
    pub fn training_exhausted(&self) -> bool {
        matches!(self.phase, Phase::Training { .. })
            && self.training_extensions_used > MAX_TRAINING_EXTENSIONS
    }

    /// Whether the test-phase quality gates were met when the model was
    /// (last) built.
    #[must_use]
    pub fn quality_met(&self) -> bool {
        self.quality_met
    }

    /// Attaches a telemetry handle; the engine then feeds the impact /
    /// predict / train latency histograms, the durability counters, and
    /// hands each wave's [`WaveDiagnostics`] row to the journal.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        if let Some(checkpointer) = &mut self.durability {
            checkpointer.set_telemetry(telemetry.clone());
        }
        self.predictor.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// The engine's telemetry handle (an inert disabled handle unless one
    /// was attached).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Requests a fresh training phase of `waves` waves starting at the next
    /// wave — the paper's on-demand retraining "useful if data patterns
    /// start to change suddenly". It is the one retraining trigger: §3.1's
    /// "regularly from time to time" is this call on the caller's schedule.
    ///
    /// Training measures each step's output error against its last
    /// execution, which is what the step's output containers hold now. The
    /// application phase pauses the outputs' change sets, so they reopen
    /// here, marked at the containers' current state. So do the input sets
    /// of an unmonitored step: it ran at every wave, and each completion
    /// marked its inputs, so the reopened mark is the one it would have
    /// had unless its inputs were written after it last ran (an aborted
    /// wave, a write between waves).
    pub fn request_training(&mut self, next_wave: u64, waves: usize) {
        self.kb.clear();
        self.training_extensions_used = 0;
        self.application_waves_since_training = 0;
        for (idx, step) in self.steps.iter_mut().enumerate() {
            let _span = self
                .telemetry
                .span(names::BASELINE_RESET_LATENCY, idx as u64);
            let inputs = if step.monitored {
                &mut []
            } else {
                &mut step.inputs[..]
            };
            for tracker in inputs.iter_mut().chain(&mut step.outputs) {
                tracker.reopen(&self.store, self.changes);
            }
            step.monitored = true;
        }
        self.phase = Phase::Training {
            until_wave: next_wave + waves as u64 - 1,
        };
    }

    /// Computes the current input impact of QoD step `idx` (combined across
    /// its input containers).
    fn compute_impact(&mut self, idx: usize) -> f64 {
        let _span = self.telemetry.span(names::IMPACT_LATENCY, idx as u64);
        let step = &mut self.steps[idx];
        self.container_impacts.clear();
        for tracker in &mut step.inputs {
            self.container_impacts.push(tracker.evaluate(
                step.spec.mode,
                &self.store,
                self.changes,
            ));
        }
        step.spec.combiner.combine(&self.container_impacts)
    }

    /// Computes the simulated output error of QoD step `idx` against its
    /// virtual baseline (training mode).
    fn compute_error(&mut self, idx: usize) -> f64 {
        let _span = self.telemetry.span(names::ERROR_LATENCY, idx as u64);
        let step = &mut self.steps[idx];
        let mut worst: f64 = 0.0;
        for tracker in &mut step.outputs {
            worst = worst.max(tracker.evaluate(step.spec.mode, &self.store, self.changes));
        }
        worst
    }

    /// Restarts step `idx`'s input impact from the current container state
    /// (called when the step executes, actually or virtually).
    fn reset_input_baselines(&mut self, idx: usize) {
        let _span = self
            .telemetry
            .span(names::BASELINE_RESET_LATENCY, idx as u64);
        let step = &mut self.steps[idx];
        for tracker in &mut step.inputs {
            tracker.restart(step.spec.mode, &self.store, self.changes);
        }
    }

    /// Restarts step `idx`'s output error (training mode virtual
    /// execution).
    fn reset_output_baselines(&mut self, idx: usize) {
        let _span = self
            .telemetry
            .span(names::BASELINE_RESET_LATENCY, idx as u64);
        let step = &mut self.steps[idx];
        for tracker in &mut step.outputs {
            tracker.restart(step.spec.mode, &self.store, self.changes);
        }
    }

    /// Rolls the per-wave marks forward (Accumulate-mode bookkeeping):
    /// the inputs' always, the outputs' only in training — elsewhere their
    /// change sets are paused.
    fn roll_wave_marks(&mut self) {
        let training = matches!(self.phase, Phase::Training { .. });
        for step in &mut self.steps {
            if step.spec.mode == AccumulationMode::Accumulate {
                let outputs = if training {
                    &mut step.outputs[..]
                } else {
                    &mut []
                };
                for tracker in step.inputs.iter_mut().chain(outputs) {
                    tracker.roll_wave(&self.store, self.changes);
                }
            }
        }
    }

    /// Settles what the application phase measures. Every output's change
    /// set pauses: only training reads an output's error. A Cancel-mode
    /// step whose rule runs it at every ι becomes unmonitored: its input
    /// sets pause too, and its ι reads NaN, "not measured", in every row.
    /// An Accumulate-mode step stays monitored, because its accumulated
    /// value carries the last wave's changes, which a set reopened later
    /// could not rebuild. `request_training` reopens every paused set.
    fn enter_application(&mut self) {
        for (idx, step) in self.steps.iter_mut().enumerate() {
            step.monitored = step.spec.mode == AccumulationMode::Accumulate
                || !self.predictor.rule(idx).is_some_and(StepRule::always_runs);
            let inputs = if step.monitored {
                &[][..]
            } else {
                &step.inputs[..]
            };
            for tracker in inputs.iter().chain(&step.outputs) {
                self.store.pause_changes(self.changes, tracker.change_set);
            }
            if !step.monitored {
                self.current_impacts[idx] = f64::NAN;
            }
        }
    }

    /// Ends a training wave: record the example and, at the end of the
    /// training window, build and assess the model.
    fn end_training_wave(&mut self, wave: u64, until_wave: u64) {
        // Features: impact vs virtual baselines, computed before any reset.
        let impacts: Vec<f64> = (0..self.steps.len())
            .map(|i| self.compute_impact(i))
            .collect();
        let errors: Vec<f64> = (0..self.steps.len())
            .map(|i| self.compute_error(i))
            .collect();
        let labels: Vec<bool> = errors
            .iter()
            .zip(&self.steps)
            .map(|(e, s)| s.bound.is_violated_by(*e))
            .collect();

        if self.failed_this_wave {
            // A wave with a step failure has no trustworthy ground truth:
            // outputs may be partial or stale, so the example would poison
            // the knowledge base and the confidence counters. Drop it; the
            // wave still journals and counts toward the training window.
        } else {
            // The engine built the KB with its own step count, so a shape
            // mismatch is an internal invariant break; a training wave must
            // still complete in release builds, so the example is dropped
            // rather than poisoning the wave.
            if let Err(e) = self.kb.append(wave, impacts.clone(), labels.clone()) {
                debug_assert!(false, "kb append rejected engine-shaped example: {e}");
            }

            // Virtual executions: reset baselines where the bound fired.
            for (idx, fired) in labels.iter().enumerate() {
                if *fired {
                    self.reset_input_baselines(idx);
                    self.reset_output_baselines(idx);
                }
            }

            // Ground truth exists on training waves: fold bound compliance
            // into the per-step confidence (Fig. 10). A fired label
            // means the measured ε exceeded maxε this wave.
            for (idx, fired) in labels.iter().enumerate() {
                self.confidence[idx].record(!*fired);
            }
        }
        let confidence = self
            .confidence
            .iter()
            .map(ConfidenceTracker::confidence)
            .collect();
        self.record_wave(WaveDiagnostics {
            wave,
            impacts,
            decisions: labels,
            deferred: self.deferred_this_wave,
            ground_truth: Some(Box::new(GroundTruth { errors, confidence })),
            training: true,
        });

        if wave >= until_wave {
            self.finish_training(wave);
        }
    }

    /// Hands the wave's row to the journal sinks, then keeps it in the
    /// decision history. Without telemetry the journal costs one atomic
    /// load.
    fn record_wave(&mut self, row: WaveDiagnostics) {
        self.telemetry.journal(&self.qod_steps, &row);
        self.diagnostics.push(row);
    }

    /// Counts one graceful-degradation decision (predictor unavailable or a
    /// failure reverted the step to synchronous execution).
    fn note_sdf_fallback(&self) {
        if self.telemetry.is_enabled() {
            self.telemetry.counter(names::SDF_FALLBACKS).incr();
        }
    }

    /// Builds the model, runs the test phase, and either enters the
    /// application phase or extends training.
    fn finish_training(&mut self, wave: u64) {
        let trained = {
            let _span = self.telemetry.span(names::TRAIN_LATENCY, wave);
            self.predictor.train(&self.kb)
        };
        if self.telemetry.is_enabled() {
            if let Some(build) = self.predictor.last_build_time() {
                let ms = u64::try_from(build.as_millis()).unwrap_or(u64::MAX);
                self.telemetry
                    .gauge(names::ML_MODEL_BUILD_MS)
                    .set(i64::try_from(ms).unwrap_or(i64::MAX));
                self.telemetry.health().set_model_build_ms(ms);
            }
        }
        match trained {
            Ok(quality) => {
                let gates_met = quality.accuracy >= self.config.min_accuracy
                    && quality.recall >= self.config.min_recall;
                if gates_met || self.training_extensions_used >= MAX_TRAINING_EXTENSIONS {
                    self.quality_met = gates_met;
                    self.phase = Phase::Application;
                    self.enter_application();
                    // Actual baselines: every step just executed (training is
                    // synchronous), so impacts restart from the current state.
                    for idx in 0..self.steps.len() {
                        if self.steps[idx].monitored {
                            self.reset_input_baselines(idx);
                        }
                    }
                } else {
                    self.training_extensions_used += 1;
                    self.phase = Phase::Training {
                        until_wave: wave + EXTENSION_WAVES,
                    };
                }
            }
            Err(_) => {
                // Not enough data yet — keep training. Past the last
                // extension, `training_exhausted` reports the failure.
                self.training_extensions_used += 1;
                self.phase = Phase::Training {
                    until_wave: wave + EXTENSION_WAVES,
                };
            }
        }
    }

    /// Wave-boundary durability point: on the configured interval,
    /// checkpoints store plus engine state. A failure is remembered for
    /// the session to surface — `end_wave` itself cannot return one.
    fn durability_commit(&mut self, wave: u64) {
        let Some(checkpointer) = &self.durability else {
            return;
        };
        if let Err(e) = checkpointer.maybe_checkpoint(wave, &self.store, || self.export_state()) {
            self.durability_error = Some(e);
        }
    }

    /// Serialises the engine's full decision state into the versioned
    /// binary form embedded in checkpoints (`SFES` v4: magic, version, one
    /// CRC frame). Everything that influences a future wave decision is
    /// captured: phase, knowledge base, the model kind and seed the
    /// predictor is a function of, quality flags, confidence counters, SDF
    /// fallbacks, and per tracker its accumulated value, previous-state sum
    /// and change set — empty for an output in the application phase, and
    /// for an input of an unmonitored step, whose sets are paused. The
    /// fitted models are not: recovery refits them from the knowledge base
    /// (see [`import_state`](Self::import_state)).
    /// Per-wave diagnostics are reporting-only and deliberately excluded.
    #[must_use]
    pub fn export_state(&self) -> Vec<u8> {
        // The body is encoded straight into its frame, sized by the blob
        // before it, so a recurring checkpoint does not regrow its buffer.
        let mut out = Vec::with_capacity(self.exported_len.get() * 9 / 8);
        out.extend_from_slice(STATE_MAGIC);
        codec::put_u16(&mut out, STATE_VERSION);
        let body_at = codec::begin_frame(&mut out);

        match self.phase {
            Phase::Training { until_wave } => {
                codec::put_u8(&mut out, 0);
                codec::put_u64(&mut out, until_wave);
            }
            Phase::Application => codec::put_u8(&mut out, 1),
        }

        let n = self.steps.len();
        codec::put_u32(&mut out, n as u32);

        // Knowledge base: step names then rows.
        for name in self.kb.step_names() {
            codec::put_str(&mut out, name);
        }
        codec::put_u32(&mut out, self.kb.len() as u32);
        for row in self.kb.rows() {
            codec::put_u64(&mut out, row.wave);
            for v in &row.impacts {
                codec::put_f64(&mut out, *v);
            }
            for b in &row.must_execute {
                codec::put_u8(&mut out, u8::from(*b));
            }
        }

        // Predictor: what its models are a function of besides the
        // knowledge base above, not the models themselves.
        codec::put_bytes(&mut out, &model_identity(&self.config));
        match self.predictor.quality() {
            Some(q) => {
                codec::put_u8(&mut out, 1);
                codec::put_f64(&mut out, q.accuracy);
                codec::put_f64(&mut out, q.precision);
                codec::put_f64(&mut out, q.recall);
            }
            None => codec::put_u8(&mut out, 0),
        }

        codec::put_u8(&mut out, u8::from(self.quality_met));
        codec::put_u64(&mut out, self.training_extensions_used as u64);
        codec::put_u64(&mut out, self.application_waves_since_training);
        for v in &self.current_impacts {
            codec::put_f64(&mut out, *v);
        }
        for d in &self.current_decisions {
            codec::put_u8(&mut out, u8::from(*d));
        }
        for s in &self.sdf_fallback {
            codec::put_u8(&mut out, u8::from(*s));
        }
        for tracker in &self.confidence {
            let (compliant, total) = tracker.to_parts();
            codec::put_u64(&mut out, compliant);
            codec::put_u64(&mut out, total);
        }

        for step in &self.steps {
            for trackers in [&step.inputs, &step.outputs] {
                codec::put_u32(&mut out, trackers.len() as u32);
                for tracker in trackers {
                    self.encode_tracker(&mut out, tracker);
                }
            }
        }

        codec::end_frame(&mut out, body_at);
        self.exported_len.set(out.len());
        out
    }

    /// `accumulated | previous_state_sum | count | (row, qualifier, value at
    /// the mark, latest value)*`, changes in ascending key order.
    fn encode_tracker(&self, out: &mut Vec<u8>, tracker: &Tracker) {
        codec::put_f64(out, tracker.accumulated);
        codec::put_f64(out, tracker.previous_state_sum.unwrap_or(EMPTY_SUM));
        let count_at = out.len();
        codec::put_u32(out, 0);
        let mut count = 0u32;
        self.store.visit_changes(
            self.changes,
            tracker.change_set,
            |row, qualifier, at_mark, latest| {
                codec::put_str(out, row);
                codec::put_str(out, qualifier);
                put_optional_value(out, at_mark);
                put_optional_value(out, latest);
                count += 1;
            },
        );
        out[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
    }

    /// Restores the engine from an [`export_state`] blob. The engine must
    /// have been freshly built over the same workflow (same QoD steps in
    /// the same order), over the store the blob was exported beside, and
    /// with the model kind and seed it was exported under.
    ///
    /// The blob holds no models. In the application phase the predictor is
    /// refit from the restored knowledge base — the rows the live model was
    /// fit on, since that phase never appends to it — which reproduces the
    /// exported engine's models exactly, and the test-phase quality is
    /// restored as recorded. In a training phase the predictor is left
    /// untrained: no decision consults it there, and the end of training
    /// rebuilds it from the knowledge base anyway.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Durability`]: [`DurabilityError::Corrupt`] for a
    /// damaged or mismatching blob — including one recorded under another
    /// model kind or seed, and an application-phase blob whose knowledge
    /// base cannot be fitted — and [`DurabilityError::UnsupportedVersion`]
    /// for another format version. The engine is left untouched on error.
    ///
    /// [`export_state`]: Self::export_state
    pub fn import_state(&mut self, bytes: &[u8]) -> Result<(), CoreError> {
        self.decode_state(bytes).map_err(CoreError::Durability)
    }

    fn decode_state(&mut self, bytes: &[u8]) -> Result<(), DurabilityError> {
        let corrupt = |context: &str| DurabilityError::Corrupt {
            context: context.into(),
        };
        let mut header = codec::Reader::new(bytes);
        if header.u32()? != u32::from_le_bytes(*STATE_MAGIC) {
            return Err(corrupt("bad engine-state magic"));
        }
        let version = header.u16()?;
        if version != STATE_VERSION {
            return Err(DurabilityError::UnsupportedVersion { found: version });
        }
        let body_at = bytes.len() - header.remaining();
        let body = match codec::read_frame(bytes, body_at)? {
            FrameRead::Frame { payload, next } if next == bytes.len() => payload,
            FrameRead::Frame { .. } => return Err(corrupt("trailing bytes after engine state")),
            FrameRead::End | FrameRead::Torn => return Err(corrupt("truncated engine state")),
        };
        let r = &mut codec::Reader::new(body);

        let phase = match r.u8()? {
            0 => Phase::Training {
                until_wave: r.u64()?,
            },
            1 => Phase::Application,
            _ => return Err(corrupt("unknown engine phase tag")),
        };

        let n = r.u32()? as usize;
        if n != self.steps.len() {
            return Err(corrupt("checkpointed step count does not match workflow"));
        }

        let mut names = Vec::with_capacity(n);
        for _ in 0..n {
            names.push(r.str()?);
        }
        if names
            .iter()
            .zip(self.qod_steps.iter())
            .any(|(name, step)| *name != step.name)
        {
            return Err(corrupt("checkpointed step names do not match workflow"));
        }
        let mut kb = KnowledgeBase::new(names);
        let rows = r.u32()? as usize;
        for _ in 0..rows {
            let wave = r.u64()?;
            let mut impacts = Vec::with_capacity(n);
            for _ in 0..n {
                impacts.push(r.f64()?);
            }
            let mut labels = Vec::with_capacity(n);
            for _ in 0..n {
                labels.push(r.u8()? != 0);
            }
            kb.append(wave, impacts, labels)
                .map_err(|_| corrupt("knowledge-base row has the wrong shape"))?;
        }

        if r.bytes()? != model_identity(&self.config) {
            return Err(corrupt(
                "checkpointed model kind or seed does not match the engine's config",
            ));
        }
        let quality = match r.u8()? {
            0 => None,
            1 => Some(crate::predictor::PredictorQuality {
                accuracy: r.f64()?,
                precision: r.f64()?,
                recall: r.f64()?,
            }),
            _ => return Err(corrupt("unknown predictor-quality tag")),
        };

        let quality_met = r.u8()? != 0;
        let training_extensions_used = r.u64()? as usize;
        let application_waves_since_training = r.u64()?;
        let mut current_impacts = Vec::with_capacity(n);
        for _ in 0..n {
            current_impacts.push(r.f64()?);
        }
        let mut current_decisions = Vec::with_capacity(n);
        for _ in 0..n {
            current_decisions.push(r.u8()? != 0);
        }
        let mut sdf_fallback = Vec::with_capacity(n);
        for _ in 0..n {
            sdf_fallback.push(r.u8()? != 0);
        }
        let mut confidence = Vec::with_capacity(n);
        for _ in 0..n {
            let tracker = ConfidenceTracker::from_parts(r.u64()?, r.u64()?)
                .ok_or_else(|| corrupt("more compliant waves than waves"))?;
            confidence.push(tracker);
        }

        let mut trackers_restored = Vec::with_capacity(n);
        for step in &self.steps {
            let mut restored = Vec::with_capacity(step.inputs.len() + step.outputs.len());
            for (trackers, what) in [(&step.inputs, "input"), (&step.outputs, "output")] {
                if r.u32()? as usize != trackers.len() {
                    return Err(corrupt(&format!(
                        "{what} tracker count does not match workflow"
                    )));
                }
                for _ in trackers {
                    restored.push(decode_tracker(r)?);
                }
            }
            trackers_restored.push(restored);
        }
        if !r.is_exhausted() {
            return Err(corrupt("trailing bytes after engine state"));
        }

        let models = match phase {
            Phase::Application => self.predictor.refit(&kb).map_err(|e| {
                corrupt(&format!(
                    "application-phase knowledge base cannot be fitted: {e}"
                ))
            })?,
            Phase::Training { .. } => Vec::new(),
        };

        // Everything validated — commit the restored state.
        self.phase = phase;
        self.kb = kb;
        self.predictor.restore(models, quality);
        self.quality_met = quality_met;
        self.training_extensions_used = training_extensions_used;
        self.application_waves_since_training = application_waves_since_training;
        self.current_impacts = current_impacts;
        self.current_decisions = current_decisions;
        self.sdf_fallback = sdf_fallback;
        self.confidence = confidence;
        for (step, restored) in self.steps.iter_mut().zip(trackers_restored) {
            let trackers = step.inputs.iter_mut().chain(&mut step.outputs);
            for (tracker, (accumulated, previous_state_sum, changes)) in trackers.zip(restored) {
                tracker.accumulated = accumulated;
                if let Some(sum) = &mut tracker.previous_state_sum {
                    *sum = previous_state_sum;
                }
                self.store
                    .mark_changes(self.changes, tracker.change_set, changes);
            }
        }
        // An older blob may carry output changes, or input changes of a
        // step now unmonitored, from the application phase; restored
        // above, they are dropped here with the pause.
        match self.phase {
            Phase::Application => self.enter_application(),
            Phase::Training { .. } => {
                for step in &mut self.steps {
                    step.monitored = true;
                }
            }
        }
        self.failed_this_wave = false;
        self.deferred_this_wave = 0;
        self.durability_error = None;
        Ok(())
    }
}

/// Engine-state blob magic and format version. v1 embedded two full
/// container snapshots per tracker and had no checksum of its own; v3
/// carried the fitted forests beside the knowledge base they are refit
/// from.
const STATE_MAGIC: &[u8; 4] = b"SFES";
const STATE_VERSION: u16 = 4;

/// What the predictor's forests are a function of besides the knowledge
/// base: the forest parameters and the seed. `SFES` records these bytes in
/// place of the forests, and import refits only under the same ones. The
/// leading `0` is the kind byte of a format that once held seven model
/// kinds; it stays so the v4 bytes do.
fn model_identity(config: &EngineConfig) -> Vec<u8> {
    let ModelKind::RandomForest {
        trees,
        max_depth,
        threshold,
    } = config.model;
    let mut out = Vec::with_capacity(33);
    codec::put_u8(&mut out, 0);
    codec::put_u64(&mut out, trees as u64);
    codec::put_u64(&mut out, max_depth as u64);
    codec::put_f64(&mut out, threshold);
    codec::put_u64(&mut out, config.seed);
    out
}

fn put_optional_value(out: &mut Vec<u8>, value: Option<&Value>) {
    match value {
        Some(value) => {
            codec::put_u8(out, 1);
            codec::put_value(out, value);
        }
        None => codec::put_u8(out, 0),
    }
}

fn optional_value(r: &mut codec::Reader<'_>) -> Result<Option<Value>, DurabilityError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.value()?)),
        _ => Err(DurabilityError::Corrupt {
            context: "unknown optional-value tag".into(),
        }),
    }
}

/// One decoded tracker: accumulated value, previous-state sum, change set.
type RestoredTracker = (
    f64,
    f64,
    Vec<(String, String, Option<Value>, Option<Value>)>,
);

/// Decodes what [`QodEngine::encode_tracker`] wrote.
fn decode_tracker(r: &mut codec::Reader<'_>) -> Result<RestoredTracker, DurabilityError> {
    let accumulated = r.f64()?;
    let previous_state_sum = r.f64()?;
    let count = r.u32()? as usize;
    // A change is at least ten bytes: a damaged count cannot size this.
    let mut changes = Vec::with_capacity(count.min(r.remaining() / 10));
    for _ in 0..count {
        changes.push((r.str()?, r.str()?, optional_value(r)?, optional_value(r)?));
    }
    Ok((accumulated, previous_state_sum, changes))
}

impl TriggerPolicy for QodEngine {
    fn begin_wave(&mut self, _wave: u64, _workflow: &Workflow) {
        self.current_decisions.fill(false);
        self.failed_this_wave = false;
        self.deferred_this_wave = 0;
    }

    fn should_trigger(&mut self, _wave: u64, step: StepId, _workflow: &Workflow) -> bool {
        let Some(&idx) = self.index_of.get(&step) else {
            // Steps without QoD bounds execute synchronously.
            return true;
        };
        match self.phase {
            Phase::Training { .. } => {
                self.current_decisions[idx] = true;
                true
            }
            Phase::Application => {
                // Graceful degradation: after a failure touching this step,
                // run it synchronously until it completes a wave again.
                if self.sdf_fallback[idx] {
                    self.note_sdf_fallback();
                    self.current_decisions[idx] = true;
                    return true;
                }
                // Its rule runs it at every ι: nothing to measure.
                if !self.steps[idx].monitored {
                    self.current_decisions[idx] = true;
                    return true;
                }
                self.current_impacts[idx] = self.compute_impact(idx);
                // The impact vector is borrowed, not cloned: the per-step
                // query path runs once per QoD step per wave, and the
                // predictor projects its feature slice without copying.
                let decision = {
                    let _span = self.telemetry.span(names::PREDICT_LATENCY, idx as u64);
                    match self.predictor.predict_step(idx, &self.current_impacts) {
                        Ok(d) => d,
                        Err(_) => {
                            // Predictor unavailable: fail safe, execute.
                            self.note_sdf_fallback();
                            true
                        }
                    }
                };
                self.current_decisions[idx] = decision;
                decision
            }
        }
    }

    fn step_completed(&mut self, _wave: u64, step: StepId, _workflow: &Workflow) {
        if let Some(&idx) = self.index_of.get(&step) {
            // A completed execution supersedes any failure-driven fallback.
            self.sdf_fallback[idx] = false;
            if self.phase == Phase::Application && self.steps[idx].monitored {
                // The step ran: its input impact restarts from here.
                self.reset_input_baselines(idx);
            }
        }
    }

    fn step_deferred(&mut self, _wave: u64, _step: StepId, _workflow: &Workflow) {
        self.deferred_this_wave += 1;
    }

    fn step_failed(&mut self, _wave: u64, step: StepId, workflow: &Workflow) {
        self.failed_this_wave = true;
        // The failed step and every QoD step downstream of it may be holding
        // or consuming stale data; revert them to synchronous execution
        // until they each complete a wave again.
        let graph = workflow.graph();
        let mut seen = vec![false; graph.len()];
        let mut stack = vec![step];
        while let Some(s) = stack.pop() {
            if seen[s.index()] {
                continue;
            }
            seen[s.index()] = true;
            if let Some(&idx) = self.index_of.get(&s) {
                self.sdf_fallback[idx] = true;
            }
            stack.extend_from_slice(graph.successors(s));
        }
    }

    fn end_wave(&mut self, wave: u64, _workflow: &Workflow) {
        let _span = self.telemetry.span(names::END_WAVE_LATENCY, wave);
        match self.phase {
            Phase::Training { until_wave } => {
                self.end_training_wave(wave, until_wave);
                self.roll_wave_marks();
            }
            Phase::Application => {
                self.roll_wave_marks();
                self.record_wave(WaveDiagnostics {
                    wave,
                    impacts: self.current_impacts.clone(),
                    decisions: self.current_decisions.clone(),
                    deferred: self.deferred_this_wave,
                    ground_truth: None,
                    training: false,
                });
                self.application_waves_since_training += 1;
            }
        }
        self.durability_commit(wave);
        if self.telemetry.is_enabled() {
            let health = self.telemetry.health();
            health.set_phase(match self.phase {
                Phase::Training { .. } => "training",
                Phase::Application => "application",
            });
            health.note_wave(wave);
            let age = self.application_waves_since_training;
            health.set_model_age_waves(age);
            self.telemetry
                .gauge(names::QOD_MODEL_AGE_WAVES)
                .set(i64::try_from(age).unwrap_or(i64::MAX));
            if let Some(checkpointer) = &self.durability {
                let lag = checkpointer.checkpoint_lag_waves(wave);
                health.set_checkpoint_lag(lag, checkpointer.options().checkpoint_interval());
                self.telemetry
                    .gauge(names::CHECKPOINT_LAG_WAVES)
                    .set(i64::try_from(lag).unwrap_or(i64::MAX));
            }
        }
    }
}

impl std::fmt::Debug for QodEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QodEngine")
            .field("phase", &self.phase)
            .field("qod_steps", &self.steps.len())
            .field("kb_rows", &self.kb.len())
            .field("trained", &self.predictor.is_trained())
            .finish()
    }
}

/// A cheaply-cloneable [`TriggerPolicy`] adapter around a shared engine, so
/// a session can keep introspecting the engine after handing the policy to
/// the scheduler.
#[derive(Clone)]
pub struct SharedEngine(Arc<Mutex<QodEngine>>);

impl SharedEngine {
    /// Wraps an engine for shared access.
    #[must_use]
    pub fn new(engine: QodEngine) -> Self {
        Self(Arc::new(Mutex::new(engine)))
    }

    /// Runs `f` with the engine locked.
    pub fn with<R>(&self, f: impl FnOnce(&QodEngine) -> R) -> R {
        f(&self.0.lock())
    }

    /// Runs `f` with the engine locked mutably.
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut QodEngine) -> R) -> R {
        f(&mut self.0.lock())
    }
}

impl TriggerPolicy for SharedEngine {
    // The lock below is the engine's own serialization mutex: each call
    // forwards to the engine method of the same name, which never
    // re-enters the policy or runs user code, so holding the guard for
    // the forwarded call is the intended design rather than a span bug.
    fn begin_wave(&mut self, wave: u64, workflow: &Workflow) {
        // tidy:allow(lock-span): forwarding under the engine's own mutex
        self.0.lock().begin_wave(wave, workflow);
    }

    fn should_trigger(&mut self, wave: u64, step: StepId, workflow: &Workflow) -> bool {
        // tidy:allow(lock-span): forwarding under the engine's own mutex
        self.0.lock().should_trigger(wave, step, workflow)
    }

    fn step_completed(&mut self, wave: u64, step: StepId, workflow: &Workflow) {
        // tidy:allow(lock-span): forwarding under the engine's own mutex
        self.0.lock().step_completed(wave, step, workflow);
    }

    fn step_skipped(&mut self, wave: u64, step: StepId, workflow: &Workflow) {
        // tidy:allow(lock-span): forwarding under the engine's own mutex
        self.0.lock().step_skipped(wave, step, workflow);
    }

    fn step_deferred(&mut self, wave: u64, step: StepId, workflow: &Workflow) {
        // tidy:allow(lock-span): forwarding under the engine's own mutex
        self.0.lock().step_deferred(wave, step, workflow);
    }

    fn step_failed(&mut self, wave: u64, step: StepId, workflow: &Workflow) {
        // tidy:allow(lock-span): forwarding under the engine's own mutex
        self.0.lock().step_failed(wave, step, workflow);
    }

    fn end_wave(&mut self, wave: u64, workflow: &Workflow) {
        // tidy:allow(lock-span): forwarding under the engine's own mutex
        self.0.lock().end_wave(wave, workflow);
    }
}

impl std::fmt::Debug for SharedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.lock().fmt(f)
    }
}
