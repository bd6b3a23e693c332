//! The snapshot+diff evaluator, kept as the differential oracle's reference.
//!
//! Until PR 12 the engine computed every impact and error by taking a full
//! `DataStore::snapshot` of the container and diffing it against a stored
//! baseline snapshot. The engine now streams the [`Monitor`]'s write-driven
//! change sets instead, and promises the same f64 bits. This module is the
//! old evaluator, re-expressed over public APIs as a [`TriggerPolicy`] that
//! wraps the real engine: it sees every callback the engine sees, keeps its
//! own snapshot baselines, and after each wave compares what it computed
//! with the engine's [`WaveDiagnostics`] bit for bit.
//!
//! Reference code for one PR: once the change-set path has soaked, this
//! module and its oracle go (ROADMAP item 2).
//!
//! [`Monitor`]: smartflux::Monitor
//! [`WaveDiagnostics`]: smartflux::WaveDiagnostics

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};

use smartflux::{
    AccumulationMode, EngineConfig, ErrorBound, MetricContext, MetricKind, Phase, QodEngine,
    QodSpec, SharedEngine,
};
use smartflux_datastore::{ContainerRef, DataStore, Snapshot};
use smartflux_wms::{Scheduler, StepId, TriggerPolicy, WmsError, Workflow};

use crate::error::SimError;

/// What the engine kept per monitored container before change sets.
struct SnapshotTracker {
    container: ContainerRef,
    /// Container state at the step's last (virtual or actual) execution.
    baseline: Snapshot,
    /// Container state at the end of the previous wave (Accumulate mode).
    prev_wave: Snapshot,
    accumulated: f64,
}

impl SnapshotTracker {
    fn new(container: &ContainerRef) -> Self {
        Self {
            container: container.clone(),
            baseline: Snapshot::new(),
            prev_wave: Snapshot::new(),
            accumulated: 0.0,
        }
    }

    /// `metric` over the container's change since `older`.
    fn since(&self, store: &DataStore, older: &Snapshot, metric: &MetricKind) -> (f64, Snapshot) {
        let current = store.snapshot(&self.container).unwrap_or_default();
        let diff = current.diff(older);
        let ctx = MetricContext::new(
            current.len().max(older.len()),
            older.iter().filter_map(|(_, v)| v.as_f64()).sum(),
        );
        (metric.evaluate(&diff, &ctx), current)
    }

    fn evaluate(&self, store: &DataStore, mode: AccumulationMode, metric: &MetricKind) -> f64 {
        match mode {
            AccumulationMode::Cancel => self.since(store, &self.baseline, metric).0,
            AccumulationMode::Accumulate => {
                self.accumulated + self.since(store, &self.prev_wave, metric).0
            }
        }
    }

    fn reset(&mut self, store: &DataStore) {
        self.baseline = store.snapshot(&self.container).unwrap_or_default();
        self.accumulated = 0.0;
    }

    fn roll(&mut self, store: &DataStore, metric: &MetricKind) {
        let (value, current) = self.since(store, &self.prev_wave, metric);
        self.accumulated += value;
        self.prev_wave = current;
    }
}

struct ReferenceStep {
    name: String,
    bound: ErrorBound,
    spec: QodSpec,
    inputs: Vec<SnapshotTracker>,
    outputs: Vec<SnapshotTracker>,
}

/// A [`TriggerPolicy`] that forwards every call to the wrapped engine and
/// shadows it with the snapshot evaluator.
pub struct ReferencePolicy {
    engine: SharedEngine,
    store: DataStore,
    steps: Vec<ReferenceStep>,
    index_of: HashMap<StepId, usize>,
    /// Latest application-phase impact per step, as the engine keeps it.
    current_impacts: Vec<f64>,
    sdf_fallback: Vec<bool>,
    failed_this_wave: bool,
    /// Mismatches between the engine and the reference, one line each.
    mismatches: Sender<String>,
}

impl ReferencePolicy {
    /// Shadows `engine`, which must have been built from the same
    /// `workflow`, `store` and `config`. Mismatches arrive on the returned
    /// channel, one line each.
    ///
    /// # Errors
    ///
    /// Fails if a QoD step's bound is invalid (the engine would have
    /// rejected the workflow too).
    pub fn new(
        workflow: &Workflow,
        store: DataStore,
        config: &EngineConfig,
        engine: SharedEngine,
    ) -> Result<(Self, Receiver<String>), SimError> {
        let mut steps = Vec::new();
        let mut index_of = HashMap::new();
        for (idx, id) in workflow.qod_steps().into_iter().enumerate() {
            let info = workflow.info(id);
            let name = workflow.graph().step_name(id).to_owned();
            let bound = info
                .error_bound()
                .ok_or_else(|| format!("QoD step `{name}` declares no bound"))
                .and_then(ErrorBound::new)
                .map_err(SimError::Invalid)?;
            let spec = config
                .per_step_specs
                .get(&name)
                .unwrap_or(&config.default_spec)
                .clone();
            steps.push(ReferenceStep {
                name,
                bound,
                spec,
                inputs: info.inputs().iter().map(SnapshotTracker::new).collect(),
                outputs: info.outputs().iter().map(SnapshotTracker::new).collect(),
            });
            index_of.insert(id, idx);
        }
        let n = steps.len();
        let (mismatches, found) = channel();
        Ok((
            Self {
                engine,
                store,
                steps,
                index_of,
                current_impacts: vec![0.0; n],
                sdf_fallback: vec![false; n],
                failed_this_wave: false,
                mismatches,
            },
            found,
        ))
    }

    fn phase(&self) -> Phase {
        self.engine.with(QodEngine::phase)
    }

    fn impact(&self, idx: usize) -> f64 {
        let step = &self.steps[idx];
        let per_container: Vec<f64> = step
            .inputs
            .iter()
            .map(|t| t.evaluate(&self.store, step.spec.mode, &step.spec.impact))
            .collect();
        step.spec.combiner.combine(&per_container)
    }

    fn error(&self, idx: usize) -> f64 {
        let step = &self.steps[idx];
        step.outputs
            .iter()
            .map(|t| t.evaluate(&self.store, step.spec.mode, &step.spec.error))
            .fold(0.0, f64::max)
    }

    fn reset_inputs(&mut self, idx: usize) {
        for tracker in &mut self.steps[idx].inputs {
            tracker.reset(&self.store);
        }
    }

    fn reset_outputs(&mut self, idx: usize) {
        for tracker in &mut self.steps[idx].outputs {
            tracker.reset(&self.store);
        }
    }

    fn roll(&mut self) {
        for step in &mut self.steps {
            if step.spec.mode != AccumulationMode::Accumulate {
                continue;
            }
            for tracker in &mut step.inputs {
                tracker.roll(&self.store, &step.spec.impact);
            }
            for tracker in &mut step.outputs {
                tracker.roll(&self.store, &step.spec.error);
            }
        }
    }

    /// Compares one wave's reference values with the engine's record of it.
    fn compare(&self, wave: u64, training: bool, impacts: &[f64], errors: &[f64], labels: &[bool]) {
        let mut found = Vec::new();
        self.engine.with(|e| match e.diagnostics().last() {
            Some(d) if d.wave == wave => {
                if d.training != training {
                    found.push(format!("wave {wave}: phase diverged"));
                }
                for (what, engine, reference) in [
                    ("impact", &d.impacts, impacts),
                    ("error", &d.errors, errors),
                ] {
                    if engine.len() != reference.len() {
                        found.push(format!(
                            "wave {wave}: {} {what}s vs {} in the reference",
                            engine.len(),
                            reference.len()
                        ));
                    }
                    for (idx, (a, b)) in engine.iter().zip(reference).enumerate() {
                        if a.to_bits() != b.to_bits() {
                            found.push(format!(
                                "wave {wave} step `{}`: {what} {a:e} ({:#018x}) vs reference \
                                 {b:e} ({:#018x})",
                                self.steps[idx].name,
                                a.to_bits(),
                                b.to_bits()
                            ));
                        }
                    }
                }
                if training && d.decisions != labels {
                    found.push(format!("wave {wave}: training labels diverged"));
                }
            }
            _ => found.push(format!("wave {wave}: the engine recorded no diagnostics")),
        });
        for line in found {
            // A closed channel means nobody is listening any more.
            let _ = self.mismatches.send(line);
        }
    }
}

impl TriggerPolicy for ReferencePolicy {
    fn begin_wave(&mut self, wave: u64, workflow: &Workflow) {
        self.failed_this_wave = false;
        self.engine.begin_wave(wave, workflow);
    }

    fn should_trigger(&mut self, wave: u64, step: StepId, workflow: &Workflow) -> bool {
        if let Some(&idx) = self.index_of.get(&step) {
            if self.phase() == Phase::Application && !self.sdf_fallback[idx] {
                self.current_impacts[idx] = self.impact(idx);
            }
        }
        self.engine.should_trigger(wave, step, workflow)
    }

    fn step_completed(&mut self, wave: u64, step: StepId, workflow: &Workflow) {
        if let Some(&idx) = self.index_of.get(&step) {
            self.sdf_fallback[idx] = false;
            if self.phase() == Phase::Application {
                self.reset_inputs(idx);
            }
        }
        self.engine.step_completed(wave, step, workflow);
    }

    fn step_skipped(&mut self, wave: u64, step: StepId, workflow: &Workflow) {
        self.engine.step_skipped(wave, step, workflow);
    }

    fn step_deferred(&mut self, wave: u64, step: StepId, workflow: &Workflow) {
        self.engine.step_deferred(wave, step, workflow);
    }

    fn step_failed(&mut self, wave: u64, step: StepId, workflow: &Workflow) {
        self.failed_this_wave = true;
        let graph = workflow.graph();
        let mut seen = vec![false; graph.len()];
        let mut stack = vec![step];
        while let Some(s) = stack.pop() {
            if std::mem::replace(&mut seen[s.index()], true) {
                continue;
            }
            if let Some(&idx) = self.index_of.get(&s) {
                self.sdf_fallback[idx] = true;
            }
            stack.extend_from_slice(graph.successors(s));
        }
        self.engine.step_failed(wave, step, workflow);
    }

    fn end_wave(&mut self, wave: u64, workflow: &Workflow) {
        // The store does not change during `end_wave`, so the reference may
        // read it before or after the engine does its own bookkeeping.
        match self.phase() {
            Phase::Training { .. } => {
                let n = self.steps.len();
                let impacts: Vec<f64> = (0..n).map(|i| self.impact(i)).collect();
                let errors: Vec<f64> = (0..n).map(|i| self.error(i)).collect();
                let labels: Vec<bool> = errors
                    .iter()
                    .zip(&self.steps)
                    .map(|(e, s)| s.bound.is_violated_by(*e))
                    .collect();
                if !self.failed_this_wave {
                    for (idx, fired) in labels.iter().enumerate() {
                        if *fired {
                            self.reset_inputs(idx);
                            self.reset_outputs(idx);
                        }
                    }
                }
                self.engine.end_wave(wave, workflow);
                if self.phase() == Phase::Application {
                    // Training just ended: every step executed this wave.
                    for idx in 0..n {
                        self.reset_inputs(idx);
                    }
                }
                self.roll();
                self.compare(wave, true, &impacts, &errors, &labels);
            }
            Phase::Application => {
                self.roll();
                self.engine.end_wave(wave, workflow);
                self.compare(wave, false, &self.current_impacts, &[], &[]);
            }
        }
    }
}

/// Runs `waves` waves of `workflow` under the real engine shadowed by the
/// reference evaluator and returns every mismatch found. Waves aborted by
/// scripted step failures are skipped over, as the session drivers do.
///
/// # Errors
///
/// Fails on engine construction errors and on wave failures that are not
/// step failures.
pub fn run_differential(
    workflow: Workflow,
    store: &DataStore,
    config: EngineConfig,
    waves: u64,
    join_hangs: bool,
) -> Result<Vec<String>, SimError> {
    let engine = SharedEngine::new(QodEngine::from_workflow(
        &workflow,
        store.clone(),
        config.clone(),
    )?);
    let (policy, found) = ReferencePolicy::new(&workflow, store.clone(), &config, engine)?;
    let mut scheduler = Scheduler::new(workflow, store.clone(), Box::new(policy));
    while scheduler.next_wave() <= waves {
        match scheduler.run_wave() {
            Ok(_) | Err(WmsError::StepFailed { .. } | WmsError::WaveAborted { .. }) => {}
            Err(other) => return Err(SimError::Wms(other)),
        }
        if join_hangs {
            scheduler.join_abandoned();
        }
    }
    drop(scheduler);
    Ok(found.iter().collect())
}
