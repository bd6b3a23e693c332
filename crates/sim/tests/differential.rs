//! The damage battery over the engine-state blob: `SFES` v2 flipped and
//! truncated at every offset ([`smartflux_sim::faults::wire`]) — a typed
//! error every time, the engine unchanged, no panic.

use smartflux::{CoreError, DurabilityError, QodEngine, SharedEngine};
use smartflux_datastore::DataStore;
use smartflux_sim::faults::wire;
use smartflux_sim::{workload, Scenario};
use smartflux_wms::Scheduler;

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
