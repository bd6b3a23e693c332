//! The scheduler's one report channel, its [`TriggerPolicy`] hooks: each
//! wave is one `begin_wave`, then exactly one decision hook per step it
//! reaches in `topo_order()`, then one `end_wave` — on completed and
//! aborted waves alike — and it agrees with the [`WaveOutcome`],
//! [`WmsError::StepFailed`] and [`ExecutionStats`](smartflux_wms::ExecutionStats).

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use smartflux_datastore::{DataStore, Value};
use smartflux_wms::{
    FaultSchedule, FaultyStep, FnStep, GraphBuilder, RetryPolicy, Scheduler, StepContext, StepId,
    TriggerPolicy, WaveOutcome, WmsError, Workflow,
};

/// One hook call, as the recording policy saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hook {
    Begin(u64),
    ShouldTrigger(u64, StepId),
    Deferred(u64, StepId),
    Skipped(u64, StepId),
    Completed(u64, StepId),
    Failed(u64, StepId),
    End(u64),
}

/// Records every hook call and declines the steps `skip` names.
struct Recorder {
    log: Arc<Mutex<Vec<Hook>>>,
    skip: fn(u64, &str) -> bool,
}

impl Recorder {
    fn push(&self, hook: Hook) {
        self.log.lock().unwrap().push(hook);
    }
}

impl TriggerPolicy for Recorder {
    fn begin_wave(&mut self, wave: u64, _workflow: &Workflow) {
        self.push(Hook::Begin(wave));
    }

    fn should_trigger(&mut self, wave: u64, step: StepId, workflow: &Workflow) -> bool {
        self.push(Hook::ShouldTrigger(wave, step));
        !(self.skip)(wave, workflow.graph().step_name(step))
    }

    fn step_completed(&mut self, wave: u64, step: StepId, _workflow: &Workflow) {
        self.push(Hook::Completed(wave, step));
    }

    fn step_skipped(&mut self, wave: u64, step: StepId, _workflow: &Workflow) {
        self.push(Hook::Skipped(wave, step));
    }

    fn step_deferred(&mut self, wave: u64, step: StepId, _workflow: &Workflow) {
        self.push(Hook::Deferred(wave, step));
    }

    fn step_failed(&mut self, wave: u64, step: StepId, _workflow: &Workflow) {
        self.push(Hook::Failed(wave, step));
    }

    fn end_wave(&mut self, wave: u64, _workflow: &Workflow) {
        self.push(Hook::End(wave));
    }
}

/// `feed → mid → tail → report` and `feed → side → report`.
///
/// - `feed` and `tail` are always-run; the policy decides the others.
/// - `side` fails the first attempt of every third wave and has two
///   attempts, so those waves recover after one retry.
/// - `tail` fails both attempts of every fourth wave: the wave aborts.
fn workflow() -> (DataStore, Workflow) {
    let store = DataStore::new();
    store.create_table("t").unwrap();
    store.create_family("t", "f").unwrap();
    let mut g = GraphBuilder::new("hooks");
    let feed = g.add_step("feed");
    let mid = g.add_step("mid");
    let side = g.add_step("side");
    let tail = g.add_step("tail");
    let report = g.add_step("report");
    for (from, to) in [
        (feed, mid),
        (mid, tail),
        (tail, report),
        (feed, side),
        (side, report),
    ] {
        g.add_edge(from, to).unwrap();
    }
    let mut wf = Workflow::new(g.build().unwrap());
    let write = |row: &'static str| {
        FnStep::new(move |ctx: &StepContext| {
            ctx.put("t", "f", row, "v", Value::from(ctx.wave() as f64))?;
            Ok(())
        })
    };
    wf.bind(feed, write("feed")).source();
    wf.bind(mid, write("mid"));
    wf.bind(
        side,
        FaultyStep::new(
            write("side"),
            FaultSchedule::EveryKthWave {
                every: 3,
                failures: 1,
            },
        ),
    )
    .retry(RetryPolicy::attempts(2));
    wf.bind(
        tail,
        FaultyStep::new(
            write("tail"),
            FaultSchedule::EveryKthWave {
                every: 4,
                failures: 2,
            },
        ),
    )
    .source()
    .retry(RetryPolicy::attempts(2));
    wf.bind(report, write("report"));
    (store, wf)
}

/// Checks one wave's hook calls against the contract and against what
/// `run_wave` returned. `ever` holds the steps that have completed an
/// execution; a step is eligible once all its predecessors are in it.
fn check_wave(
    hooks: &[Hook],
    wf: &Workflow,
    wave: u64,
    result: &Result<WaveOutcome, WmsError>,
    ever: &mut HashSet<StepId>,
) {
    assert_eq!(hooks.first(), Some(&Hook::Begin(wave)), "wave {wave}");
    assert_eq!(hooks.last(), Some(&Hook::End(wave)), "wave {wave}");
    let mut calls = hooks[1..hooks.len() - 1].iter().copied().peekable();
    let (mut executed, mut skipped, mut deferred) = (Vec::new(), Vec::new(), Vec::new());
    let mut failed = None;
    for &step in wf.graph().topo_order() {
        if failed.is_some() {
            break;
        }
        let eligible = wf
            .graph()
            .predecessors(step)
            .iter()
            .all(|p| ever.contains(p));
        let asked = calls.next_if_eq(&Hook::ShouldTrigger(wave, step)).is_some();
        assert_eq!(
            asked,
            eligible && !wf.info(step).always_run(),
            "wave {wave}: should_trigger for eligible policy-managed steps only ({step})"
        );
        match calls.next() {
            Some(Hook::Deferred(w, s)) if (w, s) == (wave, step) => {
                assert!(!eligible, "wave {wave}: eligible step {step} deferred");
                deferred.push(step);
            }
            Some(Hook::Skipped(w, s)) if (w, s) == (wave, step) => {
                assert!(asked, "wave {wave}: {step} skipped unasked");
                skipped.push(step);
            }
            Some(Hook::Completed(w, s)) if (w, s) == (wave, step) => {
                assert!(eligible, "wave {wave}: ineligible step {step} ran");
                ever.insert(step);
                executed.push(step);
            }
            Some(Hook::Failed(w, s)) if (w, s) == (wave, step) => {
                assert!(eligible, "wave {wave}: ineligible step {step} ran");
                failed = Some(step);
            }
            other => panic!("wave {wave}: expected one decision for {step}, got {other:?}"),
        }
    }
    assert_eq!(calls.next(), None, "wave {wave}: hooks past the last step");
    match (result, failed) {
        (Ok(outcome), None) => {
            assert_eq!(outcome.wave, wave);
            assert_eq!(outcome.executed, executed, "wave {wave}");
            assert_eq!(outcome.skipped, skipped, "wave {wave}");
            assert_eq!(outcome.deferred, deferred, "wave {wave}");
        }
        (Err(WmsError::StepFailed { step, wave: w, .. }), Some(failed)) => {
            assert_eq!(*w, wave);
            assert_eq!(step, wf.graph().step_name(failed));
        }
        (result, failed) => panic!("wave {wave}: {result:?} with failed hook {failed:?}"),
    }
}

#[test]
fn hook_contract_holds_on_completed_and_aborted_waves() {
    const WAVES: u64 = 8;
    let (store, wf) = workflow();
    let log = Arc::new(Mutex::new(Vec::new()));
    let policy = Recorder {
        log: Arc::clone(&log),
        // `mid` declined on wave 1 defers `tail` and `report`; `side`
        // declined on wave 2 is skipped after one `should_trigger`.
        skip: |wave, step| matches!((wave, step), (1, "mid") | (2, "side")),
    };
    let mut sched = Scheduler::new(wf, store, Box::new(policy));
    let mut ever = HashSet::new();
    let mut aborted = Vec::new();
    for wave in 1..=WAVES {
        let result = sched.run_wave();
        let hooks = std::mem::take(&mut *log.lock().unwrap());
        check_wave(&hooks, sched.workflow(), wave, &result, &mut ever);
        if let Err(WmsError::StepFailed { step, attempts, .. }) = &result {
            assert_eq!((step.as_str(), *attempts), ("tail", 2), "wave {wave}");
            aborted.push(wave);
        }
    }

    // `tail` spends both attempts on waves 4 and 8; nothing after it in
    // `topo_order()` is reached there.
    assert_eq!(aborted, [4, 8]);
    let id = |name| sched.workflow().graph().step_id(name).unwrap();
    let stats = sched.stats();
    assert_eq!(stats.waves_aborted(), 2);
    assert_eq!(stats.waves(), WAVES - 2);
    assert_eq!(stats.failures(id("tail")), 2);
    assert_eq!(stats.retries(id("tail")), 2, "one retry per aborted wave");
    // `side` runs on waves 3 and 6 whatever its place in `topo_order()`
    // (neither aborts), and each needs one retry.
    assert_eq!(stats.retries(id("side")), 2);
    assert_eq!(stats.skips(id("side")), 1);
    assert_eq!(stats.deferrals(id("tail")), 1);
}
