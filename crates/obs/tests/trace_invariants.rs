//! Trace-tree invariants over a live chaos run.
//!
//! Drives the PR 3 fault-injection setup (a transiently failing step
//! under a retry budget) with causal tracing on, then checks the span
//! taxonomy end to end:
//!
//! 1. every wave produces exactly one `wms.wave` root span,
//! 2. every `wms.step_attempt` span is a child of a `wms.step_total`
//!    span (retry storms stay attached to their step),
//! 3. no span leaks across waves — each tree's spans share its root's
//!    trace id by construction, so a leak would show up as an orphan or
//!    an extra root.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use smartflux_datastore::{ContainerRef, DataStore, Value};
use smartflux_obs::trace::build_forest;
use smartflux_obs::RingTraceSink;
use smartflux_telemetry::{names, Telemetry, TraceSink};
use smartflux_wms::{
    FaultSchedule, FaultyStep, FnStep, GraphBuilder, RetryPolicy, Scheduler, StepContext,
    SynchronousPolicy, Workflow,
};

fn chaos_scheduler(telemetry: Telemetry) -> Scheduler {
    let store = DataStore::new();
    store
        .ensure_container(&ContainerRef::family("t", "f"))
        .unwrap();
    let mut b = GraphBuilder::new("chaos");
    let src = b.add_step("src");
    let flaky = b.add_step("flaky");
    b.add_edge(src, flaky).unwrap();
    let mut w = Workflow::new(b.build().unwrap());
    w.bind(
        src,
        FnStep::new(|ctx: &StepContext| {
            ctx.put("t", "f", "src", "v", Value::from(ctx.wave() as f64))?;
            Ok(())
        }),
    )
    .source();
    // Fails twice on every 3rd wave; the retry budget absorbs it.
    w.bind(
        flaky,
        FaultyStep::new(
            FnStep::new(|ctx: &StepContext| {
                let v = ctx.get_f64("t", "f", "src", "v", 0.0)?;
                ctx.put("t", "f", "flaky", "v", Value::from(v * 2.0))?;
                Ok(())
            }),
            FaultSchedule::EveryKthWave {
                every: 3,
                failures: 2,
            },
        ),
    )
    .retry(RetryPolicy::attempts(3));
    let mut scheduler = Scheduler::new(w, store, Box::new(SynchronousPolicy));
    scheduler.set_telemetry(telemetry);
    scheduler
}

#[test]
fn chaos_run_produces_one_connected_tree_per_wave() {
    let telemetry = Telemetry::enabled();
    let ring = Arc::new(RingTraceSink::with_capacity(4096));
    telemetry.set_trace_sink(Some(Arc::clone(&ring) as Arc<dyn TraceSink>));

    let waves = 12u64;
    let mut scheduler = chaos_scheduler(telemetry.clone());
    scheduler.run_waves(waves).unwrap();
    let retries = telemetry.snapshot().counter(names::STEP_RETRIES);
    assert!(
        retries >= 4,
        "chaos schedule must force retries, saw {retries}"
    );

    let events = ring.events();
    let forest = build_forest(&events);

    // Invariant 1: one root per wave, and it is the wave span.
    assert!(forest.single_rooted(), "every trace has exactly one root");
    assert_eq!(forest.trees.len(), waves as usize);
    let mut root_waves = BTreeSet::new();
    for tree in &forest.trees {
        assert_eq!(tree.root.event.name, names::WAVE_LATENCY);
        assert!(
            root_waves.insert(tree.root.event.tag),
            "duplicate wave root"
        );
    }
    assert_eq!(root_waves, (1..=waves).collect::<BTreeSet<_>>());

    // Invariant 2: attempts hang off step spans; steps hang off the wave.
    let mut attempt_spans = 0usize;
    for tree in &forest.trees {
        for step in &tree.root.children {
            assert_eq!(
                step.event.name,
                names::STEP_TOTAL_LATENCY,
                "wave children are step spans"
            );
            assert!(!step.children.is_empty(), "step span has attempt children");
            for attempt in &step.children {
                assert_eq!(attempt.event.name, names::STEP_ATTEMPT_LATENCY);
            }
            attempt_spans += step.children.len();
        }
    }
    // 12 waves × 2 steps = 24 first attempts, plus 2 retries on each of
    // the 4 faulted waves.
    assert_eq!(attempt_spans, 32);

    // Faulted waves carry 3 attempt spans under the flaky step.
    let faulted = forest
        .trees
        .iter()
        .filter(|t| t.root.children.iter().any(|step| step.children.len() == 3))
        .count();
    assert_eq!(faulted, 4, "waves 3, 6, 9, 12 retried twice each");

    // Invariant 3: nothing dangles — no orphans, and every recorded
    // traced span landed in exactly one tree.
    assert_eq!(forest.orphans, 0);
    assert_eq!(forest.untraced, 0);
    let treed: usize = forest.trees.iter().map(|t| t.root.size()).sum();
    assert_eq!(treed, events.len());
}

/// The trace event the watchdog test's step emits: any name will do.
const STEP_EVENT: &str = "test.step_event";

#[test]
fn watchdog_attempts_parent_their_trace_events() {
    // A step under a timeout runs on the watchdog's worker thread; the
    // trace event it emits there must still land under its attempt span.
    let telemetry = Telemetry::enabled();
    let ring = Arc::new(RingTraceSink::with_capacity(4096));
    telemetry.set_trace_sink(Some(Arc::clone(&ring) as Arc<dyn TraceSink>));

    let mut b = GraphBuilder::new("watchdog");
    let timed = b.add_step("timed");
    let mut w = Workflow::new(b.build().unwrap());
    let emitter = telemetry.clone();
    w.bind(
        timed,
        FnStep::new(move |ctx: &StepContext| {
            emitter.trace_event(STEP_EVENT, ctx.wave(), Duration::from_micros(1));
            Ok(())
        }),
    )
    .source()
    .retry(RetryPolicy::none().with_timeout(Duration::from_secs(10)));
    let mut scheduler = Scheduler::new(w, DataStore::new(), Box::new(SynchronousPolicy));
    scheduler.set_telemetry(telemetry);
    scheduler.run_waves(6).unwrap();

    let forest = build_forest(&ring.events());
    assert!(forest.single_rooted());
    assert_eq!(forest.trees.len(), 6);
    assert_eq!(
        forest.orphans, 0,
        "the watchdog thread must propagate context"
    );
    for tree in &forest.trees {
        assert_eq!(tree.root.event.name, names::WAVE_LATENCY);
        let [step] = tree.root.children.as_slice() else {
            panic!("one step span per wave, got {:?}", tree.root.children);
        };
        assert_eq!(step.event.name, names::STEP_TOTAL_LATENCY);
        let [attempt] = step.children.as_slice() else {
            panic!("one attempt span per step, got {:?}", step.children);
        };
        assert_eq!(attempt.event.name, names::STEP_ATTEMPT_LATENCY);
        let [event] = attempt.children.as_slice() else {
            panic!(
                "the step's trace event under its attempt, got {:?}",
                attempt.children
            );
        };
        assert_eq!(event.event.name, STEP_EVENT);
        assert_eq!(
            event.event.tag, tree.root.event.tag,
            "emitted during its own wave"
        );
    }
}
