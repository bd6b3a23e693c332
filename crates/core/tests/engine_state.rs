//! The engine-state blob (`SFES` v3): round trip with non-empty change
//! sets, and typed errors for other versions and damaged bytes.

use smartflux::{
    AccumulationMode, CoreError, DurabilityError, EngineConfig, Phase, QodEngine, QodSpec,
    SharedEngine, WaveDiagnostics,
};
use smartflux_datastore::{ContainerRef, DataStore, Value};
use smartflux_wms::{FnStep, GraphBuilder, Scheduler, StepContext, Workflow};

/// Row key of the sensor cells; it reaches the blob only through a change
/// set.
const SENSOR_ROW: &str = "sensor-row";

/// `feed → smooth → alert`: eight drifting sensor cells, a smoothed copy,
/// and a thresholded summary.
fn workflow(store: &DataStore) -> Workflow {
    let raw = ContainerRef::family("t", "raw");
    let smooth = ContainerRef::family("t", "smooth");
    let alert = ContainerRef::family("t", "alert");
    for c in [&raw, &smooth, &alert] {
        store.ensure_container(c).unwrap();
    }
    let mut g = GraphBuilder::new("engine-state");
    let feed = g.add_step("feed");
    let smoother = g.add_step("smooth");
    let alerter = g.add_step("alert");
    g.add_edge(feed, smoother).unwrap();
    g.add_edge(smoother, alerter).unwrap();
    let mut wf = Workflow::new(g.build().unwrap());
    wf.bind(
        feed,
        FnStep::new(|ctx: &StepContext| {
            let w = ctx.wave() as f64;
            for i in 0..8 {
                let v = 50.0 + ((w + f64::from(i) * 3.0) / 5.0).sin() * (1.0 + f64::from(i));
                ctx.put("t", "raw", SENSOR_ROW, &format!("s{i}"), Value::from(v))?;
            }
            // A cell that comes and goes: the change sets see removals.
            if ctx.wave().is_multiple_of(3) {
                ctx.put("t", "raw", "transient", "s0", Value::from(w))?;
            } else {
                ctx.delete("t", "raw", "transient", "s0")?;
            }
            Ok(())
        }),
    )
    .source()
    .writes(raw.clone());
    wf.bind(
        smoother,
        FnStep::new(|ctx: &StepContext| {
            for i in 0..8 {
                let q = format!("s{i}");
                let v = ctx.get_f64("t", "raw", SENSOR_ROW, &q, 0.0)?;
                let prev = ctx.get_f64("t", "smooth", SENSOR_ROW, &q, v)?;
                ctx.put(
                    "t",
                    "smooth",
                    SENSOR_ROW,
                    &q,
                    Value::from(0.7 * prev + 0.3 * v),
                )?;
            }
            Ok(())
        }),
    )
    .reads(raw)
    .writes(smooth.clone())
    .error_bound(0.02);
    wf.bind(
        alerter,
        FnStep::new(|ctx: &StepContext| {
            let mut sum = 0.0;
            for i in 0..8 {
                sum += ctx.get_f64("t", "smooth", SENSOR_ROW, &format!("s{i}"), 0.0)?;
            }
            ctx.put("t", "alert", "all", "mean", Value::from(sum / 8.0))?;
            Ok(())
        }),
    )
    .reads(smooth)
    .writes(alert)
    .error_bound(0.02);
    wf
}

fn config(mode: AccumulationMode) -> EngineConfig {
    EngineConfig::new()
        .with_training_waves(25)
        .with_quality_gates(0.0, 0.0)
        .with_seed(3)
        .with_default_spec(QodSpec::new().with_mode(mode))
}

/// An engine and the scheduler driving it, over `store`.
fn stand_up(store: &DataStore, mode: AccumulationMode) -> (SharedEngine, Scheduler) {
    let wf = workflow(store);
    let engine = QodEngine::from_workflow(&wf, store.clone(), config(mode)).unwrap();
    let shared = SharedEngine::new(engine);
    let scheduler = Scheduler::new(wf, store.clone(), Box::new(shared.clone()));
    (shared, scheduler)
}

fn run(scheduler: &mut Scheduler, waves: u64) {
    for _ in 0..waves {
        scheduler.run_wave().unwrap();
    }
}

fn tail(engine: &SharedEngine, from_wave: u64) -> Vec<WaveDiagnostics> {
    engine.with(|e| e.diagnostics_since(from_wave).to_vec())
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

#[test]
fn state_round_trips_with_live_change_sets_and_resumes_identically() {
    for mode in [AccumulationMode::Cancel, AccumulationMode::Accumulate] {
        // Stops mid-training (change sets since the last virtual execution)
        // and mid-application (change sets of skipped steps).
        for stop_after in [13_u64, 41] {
            let store = DataStore::new();
            let (engine, mut scheduler) = stand_up(&store, mode);
            run(&mut scheduler, stop_after);
            let blob = engine.with(QodEngine::export_state);
            // Under Accumulate every mark rolls at the wave's end, so a
            // wave-boundary blob carries accumulated values and empty sets.
            assert_eq!(
                contains(&blob, SENSOR_ROW.as_bytes()),
                mode == AccumulationMode::Cancel,
                "{mode:?}/{stop_after}: change sets in the blob"
            );

            // Recovery's shape: the same store contents, a fresh engine.
            let copy = DataStore::from_state(store.export_state()).unwrap();
            let (restored, mut resumed) = stand_up(&copy, mode);
            restored.with_mut(|e| e.import_state(&blob)).unwrap();
            resumed.resume(stop_after + 1);
            assert_eq!(
                restored.with(QodEngine::export_state),
                blob,
                "{mode:?}/{stop_after}: re-export differs"
            );

            run(&mut scheduler, 30);
            run(&mut resumed, 30);
            assert_eq!(
                tail(&restored, stop_after + 1),
                tail(&engine, stop_after + 1),
                "{mode:?}/{stop_after}: resumed run diverged"
            );
            assert_eq!(copy.export_state(), store.export_state());
        }
    }
}

#[test]
fn diagnostics_since_returns_the_tail() {
    let store = DataStore::new();
    let (engine, mut scheduler) = stand_up(&store, AccumulationMode::Cancel);
    run(&mut scheduler, 12);
    engine.with(|e| {
        assert_eq!(e.diagnostics_since(0).len(), 12);
        assert_eq!(e.diagnostics_since(1).len(), 12);
        let tail = e.diagnostics_since(10);
        assert_eq!(
            tail.iter().map(|d| d.wave).collect::<Vec<_>>(),
            [10, 11, 12]
        );
        assert!(e.diagnostics_since(13).is_empty());
    });
}

fn durability_error(result: Result<(), CoreError>) -> DurabilityError {
    match result {
        Err(CoreError::Durability(e)) => e,
        other => panic!("expected a durability error, got {other:?}"),
    }
}

#[test]
fn other_versions_and_damage_are_typed_errors_that_change_nothing() {
    let store = DataStore::new();
    let (engine, mut scheduler) = stand_up(&store, AccumulationMode::Cancel);
    run(&mut scheduler, 41);
    assert_eq!(engine.with(QodEngine::phase), Phase::Application);
    let blob = engine.with(QodEngine::export_state);

    // What an earlier writer produced: same magic, its version, another body.
    let older = |version: u16| [b"SFES", &version.to_le_bytes()[..], &blob[6..]].concat();
    let damaged: [(&str, Vec<u8>); 6] = [
        ("v1", older(1)),
        ("v2", older(2)),
        ("empty", Vec::new()),
        ("truncated", blob[..blob.len() - 1].to_vec()),
        ("trailing", [blob.as_slice(), &[0]].concat()),
        ("flipped", {
            let mut b = blob.clone();
            let mid = b.len() / 2;
            b[mid] ^= 0xFF;
            b
        }),
    ];
    for (what, bytes) in &damaged {
        let error = durability_error(engine.with_mut(|e| e.import_state(bytes)));
        match (*what, &error) {
            ("v1", DurabilityError::UnsupportedVersion { found: 1 })
            | ("v2", DurabilityError::UnsupportedVersion { found: 2 }) => {}
            ("v1" | "v2", _) => panic!("{what} blob: {error:?}"),
            (_, DurabilityError::Corrupt { .. }) => {}
            _ => panic!("{what}: {error:?}"),
        }
        assert_eq!(
            engine.with(QodEngine::export_state),
            blob,
            "{what}: a rejected import changed the engine"
        );
    }
}
