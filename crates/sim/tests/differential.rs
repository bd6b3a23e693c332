//! The differential oracle beyond the generated sweep, and the damage
//! battery over the engine-state blob.
//!
//! - 200-wave LRB and AQHI (custom impact metric, `Max` combiner, two
//!   inputs per step), one run with periodic retraining and one under
//!   `AccumulationMode::Accumulate`: the engine's change-set evaluation
//!   against the snapshot+diff reference, impacts and simulated errors
//!   bit-equal ([`smartflux_sim::reference`]). The 256-case sweep applies
//!   the same oracle to every generated scenario.
//! - `SFES` v2 flipped and truncated at every offset
//!   ([`smartflux_sim::faults::wire`]): a typed error every time, the
//!   engine unchanged, no panic.

use smartflux::eval::WorkloadFactory;
use smartflux::{
    AccumulationMode, CoreError, DurabilityError, EngineConfig, MetricKind, QodEngine, QodSpec,
    SharedEngine,
};
use smartflux_datastore::DataStore;
use smartflux_sim::faults::wire;
use smartflux_sim::reference::run_differential;
use smartflux_sim::{workload, Scenario};
use smartflux_wms::Scheduler;
use smartflux_workloads::aqhi::AqhiFactory;
use smartflux_workloads::lrb::{self, LrbFactory};

fn base_config() -> EngineConfig {
    EngineConfig::new()
        .with_training_waves(60)
        .with_quality_gates(0.0, 0.0)
        .with_seed(7)
}

fn assert_no_mismatch(what: &str, factory: &dyn WorkloadFactory, config: EngineConfig, waves: u64) {
    let store = DataStore::new();
    let workflow = factory.build(&store);
    let found = run_differential(workflow, &store, config, waves, false).unwrap();
    assert!(
        found.is_empty(),
        "{what}: {} mismatches, first:\n{}",
        found.len(),
        found.iter().take(5).cloned().collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn lrb_matches_the_snapshot_reference_for_200_waves() {
    let config = base_config().with_step_spec("classify", lrb::classify_qod_spec());
    assert_no_mismatch("lrb", &LrbFactory::with_bound(0.05), config, 200);
}

#[test]
fn aqhi_matches_the_snapshot_reference_for_200_waves() {
    assert_no_mismatch("aqhi", &AqhiFactory::with_bound(0.05), base_config(), 200);
}

#[test]
fn retraining_and_accumulate_mode_match_the_snapshot_reference() {
    // Output baselines set during the first training phase are read again
    // when retraining starts, dozens of application waves later.
    let retraining = base_config().with_retraining_interval(25);
    assert_no_mismatch(
        "lrb+retraining",
        &LrbFactory::with_bound(0.05),
        retraining,
        240,
    );

    let accumulate = QodSpec::new()
        .with_mode(AccumulationMode::Accumulate)
        .with_impact(MetricKind::RelativeImpact)
        .with_error(MetricKind::RelativeError);
    assert_no_mismatch(
        "aqhi+accumulate",
        &AqhiFactory::with_bound(0.05),
        base_config().with_default_spec(accumulate),
        120,
    );

    // A generated scenario (faults, retries and all) with retraining on.
    let scenario = (0..200u64)
        .map(Scenario::generate)
        .find(|s| !s.faults.is_empty() && s.waves > s.training_waves as u64 + 12)
        .expect("some small seed generates a faulted scenario with an application phase");
    let store = DataStore::new();
    let workflow = workload::build_workflow(&scenario, &store).unwrap();
    let config = workload::engine_config(&scenario).with_retraining_interval(5);
    let found = run_differential(
        workflow,
        &store,
        config,
        scenario.waves,
        scenario.has_hangs(),
    )
    .unwrap();
    assert!(found.is_empty(), "`{scenario}`: {found:?}");
}

/// A trained engine over a generated scenario, its blob, and a fresh engine
/// over the same store to import into.
fn exported_state() -> (Vec<u8>, SharedEngine) {
    let scenario = (0..200u64)
        .map(Scenario::generate)
        .find(|s| s.faults.is_empty() && s.waves > s.training_waves as u64 + 4)
        .expect("some small seed generates a fault-free scenario with an application phase");
    let store = DataStore::new();
    let config = workload::engine_config(&scenario).with_telemetry(false);
    let stand_up = || {
        let workflow = workload::build_workflow(&scenario, &store).unwrap();
        let engine = SharedEngine::new(
            QodEngine::from_workflow(&workflow, store.clone(), config.clone()).unwrap(),
        );
        let scheduler = Scheduler::new(workflow, store.clone(), Box::new(engine.clone()));
        (engine, scheduler)
    };
    let (engine, mut scheduler) = stand_up();
    for _ in 0..scenario.waves {
        scheduler.run_wave().unwrap();
    }
    let blob = engine.with(QodEngine::export_state);
    drop(scheduler);
    (blob, stand_up().0)
}

#[test]
fn engine_state_damaged_at_every_offset_is_a_typed_error() {
    let (blob, target) = exported_state();
    let pristine = target.with(QodEngine::export_state);
    let import = |bytes: &[u8]| target.with_mut(|e| e.import_state(bytes));

    let check = |what: String, damaged: &[u8]| {
        match import(damaged) {
            Err(CoreError::Durability(
                DurabilityError::Corrupt { .. } | DurabilityError::UnsupportedVersion { .. },
            )) => {}
            other => panic!("{what}: expected a typed durability error, got {other:?}"),
        }
        assert_eq!(
            target.with(QodEngine::export_state),
            pristine,
            "{what}: a rejected import changed the engine"
        );
    };
    for (offset, damaged) in wire::flips(&blob).enumerate() {
        check(format!("flip at {offset}"), &damaged);
    }
    for (keep, damaged) in wire::truncations(&blob) {
        check(format!("truncation to {keep}"), &damaged);
    }
    // A length field claiming 4 GiB of body must be refused on its face,
    // not allocated for.
    let mut huge = blob.clone();
    huge[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
    check("4 GiB body length".into(), &huge);

    // And the undamaged blob still imports.
    import(&blob).unwrap();
    assert_eq!(target.with(QodEngine::export_state), blob);
}
