//! The wave-based scheduler.

use std::panic::AssertUnwindSafe;

use smartflux_datastore::DataStore;
use smartflux_telemetry::{names, Telemetry};

use crate::error::WmsError;
use crate::graph::StepId;
use crate::policy::TriggerPolicy;
use crate::stats::ExecutionStats;
use crate::step::{Step, StepContext, StepError};
use crate::workflow::Workflow;

/// A wave (iteration) number; waves are numbered from 1.
pub type WaveId = u64;

/// What happened during one wave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaveOutcome {
    /// The wave that ran.
    pub wave: WaveId,
    /// Steps that executed, in execution (topological) order.
    pub executed: Vec<StepId>,
    /// Steps the policy skipped.
    pub skipped: Vec<StepId>,
    /// Steps deferred because a predecessor has never executed.
    pub deferred: Vec<StepId>,
}

impl WaveOutcome {
    /// Returns `true` if `step` executed this wave.
    #[must_use]
    pub fn did_execute(&self, step: StepId) -> bool {
        self.executed.contains(&step)
    }
}

/// The result of driving one step through its retry budget.
struct StepExecution {
    /// Final result: the last attempt's error on exhaustion.
    outcome: Result<(), StepError>,
    /// Total attempts performed (1 = succeeded first try or no retries).
    attempts: u32,
}

/// Executes `step` under its `RetryPolicy`: up to `max_attempts` tries,
/// back to back, each on the calling (wave) thread. A fresh
/// [`StepContext`] is built per attempt; it borrows the store and the
/// step's name, so that asks the heap for nothing.
///
/// Each attempt opens a `wms.step_attempt` span (tag = attempt number), so
/// retries show up as sibling children of the enclosing step span in trace
/// trees.
fn run_step_with_retry(
    telemetry: &Telemetry,
    workflow: &Workflow,
    store: &DataStore,
    wave: WaveId,
    step: StepId,
) -> StepExecution {
    let info = workflow.info(step);
    let Some(implementation) = info.implementation() else {
        // A wave refuses to start with an unbound step, so this is not
        // reached; if it ever were, the step fails its wave cleanly.
        return StepExecution {
            outcome: Err(StepError::msg("step has no implementation")),
            attempts: 1,
        };
    };
    let max_attempts = info.retry().max_attempts();
    let name = workflow.graph().step_name(step);
    let mut attempts = 0;
    loop {
        attempts += 1;
        let ctx = StepContext::new(store, wave, step, name);
        let _attempt_span = telemetry.span(names::STEP_ATTEMPT_LATENCY, u64::from(attempts));
        let outcome = attempt_inline(implementation.as_ref(), &ctx);
        if outcome.is_ok() || attempts >= max_attempts {
            return StepExecution { outcome, attempts };
        }
    }
}

/// One attempt on the calling thread. A panicking step becomes a
/// [`StepError`] so it fails its wave through the normal retry/abort
/// lifecycle instead of tearing down the scheduler.
fn attempt_inline(implementation: &dyn Step, ctx: &StepContext) -> Result<(), StepError> {
    match std::panic::catch_unwind(AssertUnwindSafe(|| implementation.execute(ctx))) {
        Ok(Ok(())) => Ok(()),
        Ok(Err(source)) => Err(source),
        Err(_) => Err(StepError::msg("step panicked")),
    }
}

/// Drives a [`Workflow`] through waves of continuous processing.
///
/// Each wave walks the DAG in topological order, one step at a time. For
/// every step the scheduler applies the paper's triggering semantics:
///
/// 1. if any predecessor has never completed an execution, the step is
///    *deferred* (not counted as a skip — it is simply not eligible yet);
/// 2. if the step is marked always-run, it executes;
/// 3. otherwise the [`TriggerPolicy`] decides.
///
/// Every decision is reported to the policy through its hooks and recorded
/// in [`ExecutionStats`], the [`WaveOutcome`] and the `wms.*` counters.
pub struct Scheduler {
    workflow: Workflow,
    store: DataStore,
    policy: Box<dyn TriggerPolicy>,
    stats: ExecutionStats,
    telemetry: Telemetry,
    ever_executed: Vec<bool>,
    next_wave: WaveId,
}

impl Scheduler {
    /// Creates a scheduler for `workflow` over `store` using `policy`.
    #[must_use]
    pub fn new(workflow: Workflow, store: DataStore, policy: Box<dyn TriggerPolicy>) -> Self {
        let n = workflow.graph().len();
        Self {
            workflow,
            store,
            policy,
            stats: ExecutionStats::new(n),
            telemetry: Telemetry::disabled(),
            ever_executed: vec![false; n],
            next_wave: 1,
        }
    }

    /// Attaches a telemetry handle. Wave and step latencies, and the
    /// executed/skipped/deferred counters, are recorded through it; the
    /// default handle is disabled and costs near-zero per wave.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The scheduler's telemetry handle.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The workflow being scheduled.
    #[must_use]
    pub fn workflow(&self) -> &Workflow {
        &self.workflow
    }

    /// The data store steps communicate through.
    #[must_use]
    pub fn store(&self) -> &DataStore {
        &self.store
    }

    /// Accumulated execution statistics.
    #[must_use]
    pub fn stats(&self) -> &ExecutionStats {
        &self.stats
    }

    /// The number of the next wave to run.
    #[must_use]
    pub fn next_wave(&self) -> WaveId {
        self.next_wave
    }

    /// Repositions the scheduler to continue at `next_wave`, marking every
    /// step as having executed before.
    ///
    /// Intended for crash recovery: a SmartFlux run always starts with a
    /// synchronous training phase, so by the time a checkpoint exists every
    /// step has completed at least once and no step needs the
    /// "never-executed predecessor" deferral again. Wave numbering resumes
    /// exactly where the checkpointed run left off, which keeps wave-indexed
    /// decisions (retraining intervals, checkpoint cadence) aligned with the
    /// uninterrupted run.
    pub fn resume(&mut self, next_wave: WaveId) {
        self.next_wave = next_wave.max(1);
        for executed in &mut self.ever_executed {
            *executed = true;
        }
    }

    /// Runs a single wave: walks `topo_order()` one step at a time —
    /// defer, decide, run, notify — and stops at the first step that fails.
    ///
    /// # Errors
    ///
    /// Returns [`WmsError::UnboundStep`] if any step lacks an implementation
    /// and [`WmsError::StepFailed`] if a step errors after exhausting its
    /// [`RetryPolicy`]. The wave aborts at the failing step, but the abort
    /// is *clean*: the policy still receives `step_failed` and `end_wave`,
    /// stats record the aborted wave, and the next `run_wave` starts a
    /// fresh wave.
    ///
    /// [`RetryPolicy`]: crate::retry::RetryPolicy
    pub fn run_wave(&mut self) -> Result<WaveOutcome, WmsError> {
        if let Some(id) = self.workflow.first_unbound() {
            return Err(WmsError::UnboundStep(
                self.workflow.graph().step_name(id).to_owned(),
            ));
        }
        let wave = self.next_wave;
        self.next_wave += 1;

        let _wave_span = self.telemetry.span(names::WAVE_LATENCY, wave);
        self.policy.begin_wave(wave, &self.workflow);

        let mut outcome = WaveOutcome {
            wave,
            executed: Vec::new(),
            skipped: Vec::new(),
            deferred: Vec::new(),
        };

        // Indexed rather than iterated: the body needs `&mut self`.
        for i in 0..self.workflow.graph().len() {
            let step = self.workflow.graph().topo_order()[i];
            let preds_ready = self
                .workflow
                .graph()
                .predecessors(step)
                .iter()
                .all(|p| self.ever_executed[p.index()]);
            if !preds_ready {
                self.stats.record_deferral(step);
                self.count(names::STEPS_DEFERRED, 1);
                outcome.deferred.push(step);
                self.policy.step_deferred(wave, step, &self.workflow);
                continue;
            }
            if !self.workflow.info(step).always_run()
                && !self.policy.should_trigger(wave, step, &self.workflow)
            {
                self.stats.record_skip(step);
                self.count(names::STEPS_SKIPPED, 1);
                outcome.skipped.push(step);
                self.policy.step_skipped(wave, step, &self.workflow);
                continue;
            }
            let exec = {
                let _step_span = self
                    .telemetry
                    .span(names::STEP_TOTAL_LATENCY, step.index() as u64);
                run_step_with_retry(&self.telemetry, &self.workflow, &self.store, wave, step)
            };
            self.record_retries(step, exec.attempts);
            match exec.outcome {
                Ok(()) => {
                    self.stats.record_execution(step);
                    self.count(names::STEPS_EXECUTED, 1);
                    self.ever_executed[step.index()] = true;
                    outcome.executed.push(step);
                    self.policy.step_completed(wave, step, &self.workflow);
                }
                Err(source) => {
                    return Err(self.abort_wave(wave, step, exec.attempts, source));
                }
            }
        }

        self.policy.end_wave(wave, &self.workflow);
        self.stats.record_wave();
        Ok(outcome)
    }

    /// Runs `count` consecutive waves, returning each outcome.
    ///
    /// # Errors
    ///
    /// Stops at the first failing wave and returns its error.
    pub fn run_waves(&mut self, count: u64) -> Result<Vec<WaveOutcome>, WmsError> {
        // Not preallocated: `count` comes from outside and may be far more
        // waves than will ever run before one fails.
        let mut outcomes = Vec::new();
        for _ in 0..count {
            outcomes.push(self.run_wave()?);
        }
        Ok(outcomes)
    }

    /// Completes a wave that cannot finish because `step` failed: records
    /// the failure, keeps the policy lifecycle balanced (`step_failed` then
    /// `end_wave`) and counts the aborted wave. The scheduler is left
    /// consistent — the next `run_wave` starts a clean wave.
    fn abort_wave(
        &mut self,
        wave: WaveId,
        step: StepId,
        attempts: u32,
        source: StepError,
    ) -> WmsError {
        self.stats.record_failure(step);
        self.count(names::STEPS_FAILED, 1);
        self.policy.step_failed(wave, step, &self.workflow);
        self.policy.end_wave(wave, &self.workflow);
        self.stats.record_aborted_wave();
        self.count(names::WAVES_ABORTED, 1);
        WmsError::StepFailed {
            step: self.workflow.graph().step_name(step).to_owned(),
            wave,
            attempts,
            source,
        }
    }

    /// Records the retries `attempts` consumed in stats and telemetry.
    fn record_retries(&mut self, step: StepId, attempts: u32) {
        if attempts > 1 {
            let retries = u64::from(attempts - 1);
            self.stats.record_retries(step, retries);
            self.count(names::STEP_RETRIES, retries);
        }
    }

    /// Adds `n` to a telemetry counter; one atomic load when disabled.
    fn count(&self, counter: &'static str, n: u64) {
        if self.telemetry.is_enabled() {
            self.telemetry.counter(counter).add(n);
        }
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("workflow", &self.workflow)
            .field("next_wave", &self.next_wave)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::policy::SynchronousPolicy;
    use crate::step::{FnStep, StepError};
    use smartflux_datastore::{ContainerRef, Value};

    fn counter_step(table: &'static str, row: &'static str) -> impl crate::step::Step + 'static {
        FnStep::new(move |ctx: &StepContext| {
            let prev = ctx.get_f64(table, "f", row, "count", 0.0)?;
            ctx.put(table, "f", row, "count", Value::from(prev + 1.0))?;
            Ok(())
        })
    }

    /// `a → c`, with the policy `policy(c)` builds.
    fn pipeline(
        policy: impl FnOnce(StepId) -> Box<dyn TriggerPolicy>,
    ) -> (Scheduler, StepId, StepId) {
        let store = DataStore::new();
        store
            .ensure_container(&ContainerRef::family("t", "f"))
            .unwrap();
        let mut b = GraphBuilder::new("w");
        let a = b.add_step("a");
        let c = b.add_step("c");
        b.add_edge(a, c).unwrap();
        let mut w = Workflow::new(b.build().unwrap());
        w.bind(a, counter_step("t", "a")).source();
        w.bind(c, counter_step("t", "c")).error_bound(0.1);
        (Scheduler::new(w, store, policy(c)), a, c)
    }

    #[test]
    fn synchronous_runs_everything() {
        let (mut s, a, c) = pipeline(|_| Box::new(SynchronousPolicy));
        s.run_waves(5).unwrap();
        assert_eq!(s.stats().executions(a), 5);
        assert_eq!(s.stats().executions(c), 5);
        assert_eq!(s.stats().waves(), 5);
        assert_eq!(
            s.store().get("t", "f", "c", "count").unwrap(),
            Some(Value::from(5.0))
        );
    }

    /// A policy that skips one step on the waves in a range.
    struct SkipStep(StepId, std::ops::RangeInclusive<u64>);
    impl TriggerPolicy for SkipStep {
        fn should_trigger(&mut self, wave: u64, step: StepId, _wf: &Workflow) -> bool {
            step != self.0 || !self.1.contains(&wave)
        }
    }

    #[test]
    fn skipped_steps_keep_last_output() {
        // Waves 1-2 run both steps; waves 3-5 skip `c`.
        let (mut s, a, c) = pipeline(|c| Box::new(SkipStep(c, 3..=u64::MAX)));
        s.run_waves(5).unwrap();
        assert_eq!(s.stats().executions(a), 5);
        assert_eq!(s.stats().executions(c), 2);
        assert_eq!(s.stats().skips(c), 3);
        // The stale output remains available — the SmartFlux contract.
        assert_eq!(
            s.store().get("t", "f", "c", "count").unwrap(),
            Some(Value::from(2.0))
        );
    }

    #[test]
    fn downstream_deferred_until_predecessor_first_runs() {
        // A workflow whose source is policy-managed (not always-run), so the
        // downstream step starts out with a never-executed predecessor.
        let store = DataStore::new();
        store
            .ensure_container(&ContainerRef::family("t", "f"))
            .unwrap();
        let mut b = GraphBuilder::new("w2");
        let x = b.add_step("x");
        let y = b.add_step("y");
        b.add_edge(x, y).unwrap();
        let mut w = Workflow::new(b.build().unwrap());
        w.bind(x, counter_step("t", "x"));
        w.bind(y, counter_step("t", "y"));
        // x is skipped on wave 1 only.
        let mut s2 = Scheduler::new(w, store, Box::new(SkipStep(x, 1..=1)));
        let o = s2.run_wave().unwrap();
        assert!(o.skipped.contains(&x));
        assert!(o.deferred.contains(&y));
        assert_eq!(s2.stats().deferrals(y), 1);
        // Once x runs, y becomes eligible.
        let o2 = s2.run_wave().unwrap();
        assert!(o2.did_execute(x));
        assert!(o2.did_execute(y));
    }

    #[test]
    fn unbound_step_errors() {
        let store = DataStore::new();
        let mut b = GraphBuilder::new("w");
        b.add_step("lonely");
        let w = Workflow::new(b.build().unwrap());
        let mut s = Scheduler::new(w, store, Box::new(SynchronousPolicy));
        assert!(matches!(s.run_wave(), Err(WmsError::UnboundStep(_))));
    }

    #[test]
    fn failing_step_aborts_wave() {
        // Two failing sources share the first level: the wave stops at
        // the first of them in `topo_order()` and never triggers the other.
        let store = DataStore::new();
        let mut b = GraphBuilder::new("w");
        let a = b.add_step("a");
        let c = b.add_step("c");
        let mut w = Workflow::new(b.build().unwrap());
        w.bind(
            a,
            FnStep::new(|_: &StepContext| Err(StepError::msg("a broke"))),
        )
        .source();
        w.bind(
            c,
            FnStep::new(|_: &StepContext| Err(StepError::msg("c broke"))),
        )
        .source();
        let (first, second) = (w.graph().topo_order()[0], w.graph().topo_order()[1]);
        let mut s = Scheduler::new(w, store, Box::new(SynchronousPolicy));
        let err = s.run_wave().unwrap_err();
        let first_name = s.workflow().graph().step_name(first).to_owned();
        match &err {
            WmsError::StepFailed {
                step,
                wave: 1,
                attempts: 1,
                ..
            } => assert_eq!(*step, first_name),
            other => panic!("expected StepFailed, got {other:?}"),
        }
        assert!(err.to_string().contains(&format!("{first_name} broke")));

        // The abort is clean: stats recorded, the second source never
        // reached, and the next wave starts fresh.
        assert_eq!(s.stats().waves(), 0);
        assert_eq!(s.stats().waves_aborted(), 1);
        assert_eq!(s.stats().failures(first), 1);
        assert_eq!(s.stats().failures(second), 0);
        assert_eq!(s.stats().executions(second), 0);
        assert_eq!(s.next_wave(), 2);
    }

    #[test]
    fn run_waves_stops_at_a_failure_whatever_its_count() {
        // The count is not a capacity: a huge one must not be allocated
        // for before the first wave fails.
        let store = DataStore::new();
        let mut b = GraphBuilder::new("w");
        let a = b.add_step("a");
        let mut w = Workflow::new(b.build().unwrap());
        w.bind(
            a,
            FnStep::new(|_: &StepContext| Err(StepError::msg("broke"))),
        )
        .source();
        let mut s = Scheduler::new(w, store, Box::new(SynchronousPolicy));
        assert!(matches!(
            s.run_waves(u64::MAX),
            Err(WmsError::StepFailed { wave: 1, .. })
        ));
        assert_eq!(s.next_wave(), 2);
    }

    #[test]
    fn retry_recovers_transient_failure() {
        use crate::faults::{FaultSchedule, FaultyStep};
        use crate::retry::RetryPolicy;

        let store = DataStore::new();
        store
            .ensure_container(&ContainerRef::family("t", "f"))
            .unwrap();
        let mut b = GraphBuilder::new("w");
        let a = b.add_step("a");
        let mut w = Workflow::new(b.build().unwrap());
        w.bind(
            a,
            FaultyStep::new(
                counter_step("t", "a"),
                FaultSchedule::FailNThenSucceed { failures: 1 },
            ),
        )
        .source()
        .retry(RetryPolicy::attempts(2));
        let mut s = Scheduler::new(w, store, Box::new(SynchronousPolicy));
        let o = s.run_wave().unwrap();
        assert!(o.did_execute(a));
        assert_eq!(s.stats().retries(a), 1);
        assert_eq!(s.stats().failures(a), 0);
    }

    #[test]
    fn every_attempt_runs_on_the_wave_thread() {
        use crate::retry::RetryPolicy;
        use parking_lot::Mutex;
        use std::sync::Arc;
        use std::thread::ThreadId;

        let threads: Arc<Mutex<Vec<ThreadId>>> = Arc::default();
        let seen = Arc::clone(&threads);
        let store = DataStore::new();
        let mut b = GraphBuilder::new("w");
        let a = b.add_step("a");
        let mut w = Workflow::new(b.build().unwrap());
        w.bind(
            a,
            FnStep::new(move |_: &StepContext| {
                let mut seen = seen.lock();
                seen.push(std::thread::current().id());
                if seen.len() < 3 {
                    Err(StepError::msg("transient"))
                } else {
                    Ok(())
                }
            }),
        )
        .source()
        .retry(RetryPolicy::attempts(3));
        let mut s = Scheduler::new(w, store, Box::new(SynchronousPolicy));
        assert!(s.run_wave().unwrap().did_execute(a));
        assert_eq!(s.stats().retries(a), 2);
        assert_eq!(*threads.lock(), vec![std::thread::current().id(); 3]);
    }

    #[test]
    fn panicking_step_fails_cleanly_in_sequential_wave() {
        let store = DataStore::new();
        let mut b = GraphBuilder::new("w");
        let a = b.add_step("a");
        let mut w = Workflow::new(b.build().unwrap());
        w.bind(
            a,
            FnStep::new(|_: &StepContext| -> Result<(), StepError> { panic!("kaboom") }),
        )
        .source();
        let mut s = Scheduler::new(w, store, Box::new(SynchronousPolicy));
        let err = s.run_wave().unwrap_err();
        assert!(err.to_string().contains("panicked"));
        assert_eq!(s.stats().waves_aborted(), 1);
        assert_eq!(s.stats().failures(a), 1);
    }

    #[test]
    fn telemetry_records_waves_steps_and_skips() {
        use smartflux_telemetry::{names, Telemetry};
        let (mut s, ..) = pipeline(|c| Box::new(SkipStep(c, 3..=u64::MAX)));
        let telemetry = Telemetry::enabled();
        s.set_telemetry(telemetry.clone());
        s.run_waves(4).unwrap();

        let snap = telemetry.snapshot();
        assert_eq!(snap.histogram(names::WAVE_LATENCY).unwrap().count, 4);
        // Waves 1-2 run both steps; waves 3-4 skip `c`.
        assert_eq!(snap.counter(names::STEPS_EXECUTED), 6);
        assert_eq!(snap.counter(names::STEPS_SKIPPED), 2);
        // The step and attempt spans: 6 executions, each a single attempt.
        assert_eq!(snap.histogram(names::STEP_TOTAL_LATENCY).unwrap().count, 6);
        assert_eq!(
            snap.histogram(names::STEP_ATTEMPT_LATENCY).unwrap().count,
            6
        );
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        use smartflux_telemetry::names;
        let (mut s, ..) = pipeline(|_| Box::new(SynchronousPolicy));
        s.run_waves(3).unwrap();
        let snap = s.telemetry().snapshot();
        assert!(snap.histogram(names::WAVE_LATENCY).is_none());
        assert_eq!(snap.counter(names::STEPS_EXECUTED), 0);
    }

    #[test]
    fn resume_repositions_wave_and_clears_deferrals() {
        // A freshly-built pipeline resumed at wave 42 runs every step
        // immediately (no deferral for the downstream step) and numbers the
        // wave as the checkpointed run would have.
        let (mut s, a, c) = pipeline(|_| Box::new(SynchronousPolicy));
        s.resume(42);
        assert_eq!(s.next_wave(), 42);
        let o = s.run_wave().unwrap();
        assert_eq!(o.wave, 42);
        assert!(o.did_execute(a) && o.did_execute(c));
        assert!(o.deferred.is_empty());
        // Resume clamps to wave 1 — wave numbering starts at 1.
        let (mut s2, ..) = pipeline(|_| Box::new(SynchronousPolicy));
        s2.resume(0);
        assert_eq!(s2.next_wave(), 1);
    }

    #[test]
    fn wave_numbers_increase() {
        let (mut s, ..) = pipeline(|_| Box::new(SynchronousPolicy));
        assert_eq!(s.next_wave(), 1);
        let o1 = s.run_wave().unwrap();
        let o2 = s.run_wave().unwrap();
        assert_eq!(o1.wave, 1);
        assert_eq!(o2.wave, 2);
        assert_eq!(s.next_wave(), 3);
    }
}
