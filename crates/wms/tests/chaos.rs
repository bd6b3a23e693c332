//! Chaos tests: wave execution under deterministic injected faults.
//!
//! The acceptance bar for fault tolerance is byte-identical scheduling:
//! a long run with seeded transient faults and a sufficient retry budget
//! must produce exactly the same executed/skipped/deferred decisions (and
//! the same store contents) as the fault-free run — and with retries
//! disabled the same faults must abort waves *cleanly*: every wave ends
//! either completed or as one `StepFailed`, and the next wave runs.

use smartflux_datastore::{DataStore, Snapshot, Value};
use smartflux_wms::{
    FaultSchedule, FaultyStep, FnStep, GraphBuilder, RetryPolicy, Scheduler, Step, StepContext,
    StepId, TriggerPolicy, WmsError, Workflow,
};

/// Waves of the long acceptance runs.
const WAVES: u64 = 200;

/// Seed base for the per-step fault schedules.
const FAULT_SEED: u64 = 0xC0FFEE;

/// Container families written by the LRB-style pipeline, in step order.
const FAMILIES: [&str; 5] = ["feed", "seg", "tolls", "acc", "report"];

/// splitmix64-style mixer for the deterministic skip policy.
fn mix(wave: u64, idx: u64) -> u64 {
    let mut z = wave
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(idx.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Skips non-source steps on a deterministic ~third of their waves — a
/// stand-in for an adaptive policy whose decisions depend only on
/// `(wave, step)`, so faulty and fault-free runs see identical choices.
struct HashSkipPolicy;

impl TriggerPolicy for HashSkipPolicy {
    fn should_trigger(&mut self, wave: u64, step: StepId, workflow: &Workflow) -> bool {
        if workflow.graph().predecessors(step).is_empty() {
            return true; // sources always run
        }
        !mix(wave, step.index() as u64).is_multiple_of(3)
    }
}

/// The per-step transient-fault schedule of the acceptance runs: each step
/// fails at most 2 consecutive attempts on ~30% of waves.
fn seeded_schedule(idx: usize) -> FaultSchedule {
    FaultSchedule::Seeded {
        seed: FAULT_SEED + idx as u64,
        fail_percent: 30,
        max_consecutive: 2,
    }
}

/// Builds the LRB-inspired pipeline `feed → {seg, tolls, acc} → report`.
/// With `faults`, every non-source step is wrapped in a [`FaultyStep`]
/// driven by [`seeded_schedule`] and given `retry` as its retry policy.
fn lrb_scheduler(faults: Option<RetryPolicy>) -> Scheduler {
    let store = DataStore::new();
    store.create_table("lrb").unwrap();
    for family in FAMILIES {
        store.create_family("lrb", family).unwrap();
    }

    let mut g = GraphBuilder::new("lrb");
    let feed = g.add_step("feed");
    let seg = g.add_step("seg");
    let tolls = g.add_step("tolls");
    let acc = g.add_step("acc");
    let report = g.add_step("report");
    for branch in [seg, tolls, acc] {
        g.add_edge(feed, branch).unwrap();
        g.add_edge(branch, report).unwrap();
    }
    let mut wf = Workflow::new(g.build().unwrap());

    wf.bind(
        feed,
        FnStep::new(|ctx: &StepContext| {
            ctx.put("lrb", "feed", "r", "v", Value::from(ctx.wave() as f64))?;
            Ok(())
        }),
    )
    .source();

    type Branch = (StepId, fn(f64) -> f64);
    let branches: [Branch; 3] = [
        (seg, |v| v * 2.0),
        (tolls, |v| v + 10.0),
        (acc, |v| v * 0.5),
    ];
    for (idx, (id, f)) in branches.into_iter().enumerate() {
        let family = FAMILIES[idx + 1];
        let body = FnStep::new(move |ctx: &StepContext| {
            let v = ctx.get_f64("lrb", "feed", "r", "v", 0.0)?;
            ctx.put("lrb", family, "r", "v", Value::from(f(v)))?;
            Ok(())
        });
        bind_maybe_faulty(&mut wf, id, idx + 1, body, faults);
    }

    let body = FnStep::new(|ctx: &StepContext| {
        let mut sum = 0.0;
        for family in ["seg", "tolls", "acc"] {
            sum += ctx.get_f64("lrb", family, "r", "v", 0.0)?;
        }
        ctx.put("lrb", "report", "r", "v", Value::from(sum))?;
        Ok(())
    });
    bind_maybe_faulty(&mut wf, report, 4, body, faults);

    Scheduler::new(wf, store, Box::new(HashSkipPolicy))
}

fn bind_maybe_faulty(
    wf: &mut Workflow,
    id: StepId,
    idx: usize,
    body: impl Step + 'static,
    faults: Option<RetryPolicy>,
) {
    match faults {
        Some(retry) => {
            wf.bind(id, FaultyStep::new(body, seeded_schedule(idx)))
                .retry(retry);
        }
        None => {
            wf.bind(id, body);
        }
    }
}

/// Snapshots every pipeline family, for whole-store comparisons.
fn store_state(sched: &Scheduler) -> Vec<Snapshot> {
    FAMILIES
        .iter()
        .map(|family| {
            sched
                .store()
                .snapshot(&smartflux_datastore::ContainerRef::family("lrb", *family))
                .unwrap()
        })
        .collect()
}

#[test]
fn retry_completes_with_three_attempts() {
    let store = DataStore::new();
    store.create_table("t").unwrap();
    store.create_family("t", "f").unwrap();

    let mut g = GraphBuilder::new("retry");
    let work = g.add_step("work");
    let mut wf = Workflow::new(g.build().unwrap());
    wf.bind(
        work,
        FaultyStep::new(
            FnStep::new(|ctx: &StepContext| {
                ctx.put("t", "f", "r", "v", Value::from(1.0))?;
                Ok(())
            }),
            FaultSchedule::FailNThenSucceed { failures: 2 },
        ),
    )
    .source()
    .retry(RetryPolicy::attempts(3));

    let mut sched = Scheduler::new(wf, store, Box::new(HashSkipPolicy));
    let outcome = sched.run_wave().unwrap();

    assert!(outcome.did_execute(work), "third attempt succeeds");
    assert_eq!(sched.stats().retries(work), 2, "completed on attempt 3");
    assert_eq!(sched.stats().failures(work), 0);
}

#[test]
fn seeded_faults_with_retry_match_the_fault_free_run() {
    let mut clean = lrb_scheduler(None);
    // Budget of max_consecutive + 1 attempts: always recovers.
    let mut faulty = lrb_scheduler(Some(RetryPolicy::attempts(3)));

    let clean_outcomes = clean.run_waves(WAVES).unwrap();
    let faulty_outcomes = faulty.run_waves(WAVES).unwrap();

    assert_eq!(
        clean_outcomes, faulty_outcomes,
        "injected-but-retried faults must not change any scheduling decision"
    );
    assert_eq!(faulty.stats().waves(), WAVES);
    assert_eq!(faulty.stats().waves_aborted(), 0);
    assert_eq!(store_state(&clean), store_state(&faulty));

    // The faults really happened: retries equal the planned failures of
    // exactly the waves where each wrapped step executed.
    for (idx, family) in FAMILIES.iter().enumerate().skip(1) {
        let step = faulty.workflow().graph().step_id(family).unwrap();
        let expected: u64 = clean_outcomes
            .iter()
            .filter(|o| o.did_execute(step))
            .map(|o| u64::from(seeded_schedule(idx).planned_failures(o.wave)))
            .sum();
        assert_eq!(faulty.stats().retries(step), expected, "step `{family}`");
        assert!(expected > 0, "seeded schedule must fire for `{family}`");
    }
}

#[test]
fn without_retries_the_same_faults_abort_cleanly() {
    let mut faulty = lrb_scheduler(Some(RetryPolicy::none()));

    let (mut completed, mut aborted) = (0, 0);
    for wave in 1..=WAVES {
        match faulty.run_wave() {
            Ok(outcome) => {
                assert_eq!(outcome.wave, wave);
                completed += 1;
            }
            Err(WmsError::StepFailed {
                wave: failed,
                attempts,
                ..
            }) => {
                assert_eq!((failed, attempts), (wave, 1));
                aborted += 1;
            }
            Err(other) => panic!("wave {wave}: {other}"),
        }
    }

    assert!(
        aborted > 0,
        "seeded faults with no retry budget must surface"
    );
    assert_eq!(completed, faulty.stats().waves());
    assert_eq!(aborted, faulty.stats().waves_aborted());
    assert_eq!(aborted, faulty.stats().total_failures());
    assert_eq!(
        faulty.next_wave(),
        WAVES + 1,
        "aborts advance the wave clock"
    );
}
