//! Integration: paper §2 triggering semantics across the WMS, datastore and
//! core crates.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use smartflux::{CoreError, EngineConfig, ModelKind, SmartFluxSession};
use smartflux_datastore::{ContainerRef, DataStore, Value};
use smartflux_ml::MlError;
use smartflux_wms::{
    FnStep, GraphBuilder, Scheduler, StepContext, SynchronousPolicy, TriggerPolicy, Workflow,
};

/// Builds a two-branch workflow: source → {fast, slow} → join.
fn diamond(store: &DataStore) -> (Workflow, smartflux_wms::StepId, smartflux_wms::StepId) {
    for fam in ["src", "fast", "slow", "join"] {
        store
            .ensure_container(&ContainerRef::family("t", fam))
            .expect("fresh store");
    }
    let mut g = GraphBuilder::new("diamond");
    let source = g.add_step("source");
    let fast = g.add_step("fast");
    let slow = g.add_step("slow");
    let join = g.add_step("join");
    g.add_edge(source, fast).expect("valid");
    g.add_edge(source, slow).expect("valid");
    g.add_edge(fast, join).expect("valid");
    g.add_edge(slow, join).expect("valid");
    let mut wf = Workflow::new(g.build().expect("DAG"));

    wf.bind(
        source,
        FnStep::new(|ctx: &StepContext| {
            // A fast-moving and a slow-moving signal.
            let w = ctx.wave() as f64;
            ctx.put(
                "t",
                "src",
                "r",
                "fast",
                Value::from((w * 0.9).sin() * 50.0 + 100.0),
            )?;
            ctx.put("t", "src", "r", "slow", Value::from(100.0 + w * 0.01))?;
            Ok(())
        }),
    )
    .source()
    .writes(ContainerRef::family("t", "src"));
    wf.bind(
        fast,
        FnStep::new(|ctx: &StepContext| {
            let v = ctx.get_f64("t", "src", "r", "fast", 0.0)?;
            ctx.put("t", "fast", "r", "v", Value::from(v * 2.0))?;
            Ok(())
        }),
    )
    .reads(ContainerRef::column("t", "src", "fast"))
    .writes(ContainerRef::family("t", "fast"))
    .error_bound(0.05);
    wf.bind(
        slow,
        FnStep::new(|ctx: &StepContext| {
            let v = ctx.get_f64("t", "src", "r", "slow", 0.0)?;
            ctx.put("t", "slow", "r", "v", Value::from(v * 2.0))?;
            Ok(())
        }),
    )
    .reads(ContainerRef::column("t", "src", "slow"))
    .writes(ContainerRef::family("t", "slow"))
    .error_bound(0.05);
    wf.bind(
        join,
        FnStep::new(|ctx: &StepContext| {
            let a = ctx.get_f64("t", "fast", "r", "v", 0.0)?;
            let b = ctx.get_f64("t", "slow", "r", "v", 0.0)?;
            ctx.put("t", "join", "r", "v", Value::from(a + b))?;
            Ok(())
        }),
    )
    .reads(ContainerRef::family("t", "fast"))
    .reads(ContainerRef::family("t", "slow"))
    .writes(ContainerRef::family("t", "join"))
    .error_bound(0.05);
    (wf, fast, slow)
}

#[test]
fn adaptive_engine_discriminates_fast_from_slow_branches() {
    let store = DataStore::new();
    let (wf, fast, slow) = diamond(&store);
    let config = EngineConfig::new()
        .with_training_waves(120)
        .with_quality_gates(0.0, 0.0)
        .with_seed(2);
    let mut session = SmartFluxSession::new(wf, store, config).expect("bounded steps exist");
    session.run_training().expect("training succeeds");
    session.run_waves(80).expect("application succeeds");

    let stats = session.scheduler().stats();
    // The volatile branch must be recomputed much more often than the
    // near-constant one.
    assert!(
        stats.skips(slow) > stats.skips(fast),
        "slow skipped {} vs fast skipped {}",
        stats.skips(slow),
        stats.skips(fast)
    );
}

#[test]
fn skipped_steps_leave_last_output_available() {
    let store = DataStore::new();
    let (wf, _fast, _slow) = diamond(&store);

    /// Skips everything except sources.
    struct SkipAll;
    impl TriggerPolicy for SkipAll {
        fn should_trigger(
            &mut self,
            _wave: u64,
            _step: smartflux_wms::StepId,
            _wf: &Workflow,
        ) -> bool {
            false
        }
    }

    let mut sched = Scheduler::new(wf, store.clone(), Box::new(SynchronousPolicy));
    sched.run_waves(3).expect("warm-up succeeds");
    let before = store
        .snapshot(&ContainerRef::family("t", "join"))
        .expect("exists");
    sched.swap_policy(Box::new(SkipAll));
    sched.run_waves(5).expect("skipping waves succeed");
    let after = store
        .snapshot(&ContainerRef::family("t", "join"))
        .expect("exists");
    assert_eq!(before, after, "skipped outputs must remain untouched");
}

#[test]
fn observers_see_every_step_write() {
    let store = DataStore::new();
    let (wf, ..) = diamond(&store);
    let writes = Arc::new(AtomicU64::new(0));
    let w2 = Arc::clone(&writes);
    store.register_observer(Arc::new(move |_e: &smartflux_datastore::WriteEvent| {
        w2.fetch_add(1, Ordering::SeqCst);
    }));
    let mut sched = Scheduler::new(wf, store, Box::new(SynchronousPolicy));
    sched.run_waves(2).expect("waves succeed");
    // 2 waves × (2 source writes + 1 fast + 1 slow + 1 join).
    assert_eq!(writes.load(Ordering::SeqCst), 10);
}

#[test]
fn engine_requires_at_least_one_bounded_step() {
    let store = DataStore::new();
    store
        .ensure_container(&ContainerRef::family("t", "f"))
        .expect("fresh store");
    let mut g = GraphBuilder::new("plain");
    let only = g.add_step("only");
    let mut wf = Workflow::new(g.build().expect("DAG"));
    wf.bind(only, FnStep::new(|_: &StepContext| Ok(())))
        .source();
    let err = SmartFluxSession::new(wf, store, EngineConfig::new())
        .expect_err("no QoD steps should be rejected");
    assert!(err.to_string().contains("no QoD-managed steps"));
}

#[test]
fn a_forest_no_model_can_be_built_from_is_refused_up_front() {
    // The forests are built only when training ends, inside a wave, where
    // these parameters would panic; construction must refuse them.
    for (trees, max_depth, threshold) in [
        (0, 12, 0.5),
        (60, 0, 0.5),
        (60, 12, 0.0),
        (60, 12, 1.0),
        (60, 12, -0.2),
        (60, 12, f64::NAN),
    ] {
        let store = DataStore::new();
        let (wf, _, _) = diamond(&store);
        let config = EngineConfig::new().with_model(ModelKind::RandomForest {
            trees,
            max_depth,
            threshold,
        });
        let what = format!("trees {trees}, depth {max_depth}, threshold {threshold}");
        let err = SmartFluxSession::new(wf, store, config)
            .map(|_| ())
            .expect_err(&what);
        assert!(
            matches!(err, CoreError::Ml(MlError::InvalidParameter(_))),
            "{what}: {err:?}"
        );
    }
}
