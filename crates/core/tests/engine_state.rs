//! The engine-state blob (`SFES` v4): round trip with non-empty change
//! sets, typed errors for other versions and damaged bytes, and the refit
//! rule — a blob holds no models, recovery refits them from the knowledge
//! base it carries — checked as a differential oracle against the run that
//! was never interrupted.

use std::path::{Path, PathBuf};

use smartflux::{
    AccumulationMode, CoreError, DurabilityError, DurabilityOptions, EngineConfig, ModelKind,
    Phase, QodEngine, QodSpec, SharedEngine, SmartFluxSession, WaveDiagnostics,
};
use smartflux_datastore::{ContainerRef, DataStore, StoreState, Value};
use smartflux_durability::codec::{read_frame, write_frame, FrameRead};
use smartflux_ml::{StepRule, TreeArena};
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
                ctx.family("t", "raw")?.delete("transient", "s0")?;
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
    stand_up_with(store, config(mode))
}

fn stand_up_with(store: &DataStore, config: EngineConfig) -> (SharedEngine, Scheduler) {
    let wf = workflow(store);
    let engine = QodEngine::from_workflow(&wf, store.clone(), config).unwrap();
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
    engine.with(|e| e.diagnostics().since(from_wave).cloned().collect())
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
fn since_returns_the_tail() {
    let store = DataStore::new();
    let (engine, mut scheduler) = stand_up(&store, AccumulationMode::Cancel);
    run(&mut scheduler, 12);
    engine.with(|e| {
        let log = e.diagnostics();
        assert_eq!(log.since(0).len(), 12);
        assert_eq!(log.since(1).len(), 12);
        let tail = log.since(10).map(|d| d.wave).collect::<Vec<_>>();
        assert_eq!(tail, [10, 11, 12]);
        assert_eq!(log.since(13).len(), 0);
    });
    // Waves 1..=4096 fill the first chunk, 4097..=8192 the second: a
    // tail that starts on either side of a chunk edge, or past the last
    // wave.
    const LAST: u64 = 8200;
    run(&mut scheduler, LAST - 12);
    engine.with(|e| {
        let log = e.diagnostics();
        assert_eq!(log.len() as u64, LAST);
        for from in [
            0, 1, 4095, 4096, 4097, 4098, 8191, 8192, 8193, 8194, LAST, 8201, 9000,
        ] {
            let waves: Vec<u64> = log.since(from).map(|d| d.wave).collect();
            let want: Vec<u64> = (from.max(1)..=LAST).collect();
            assert_eq!(log.since(from).len(), want.len(), "since {from}");
            assert_eq!(waves, want, "since {from}");
        }
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
    let damaged: [(&str, Vec<u8>); 7] = [
        ("v1", older(1)),
        ("v2", older(2)),
        ("v3", older(3)),
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
            | ("v2", DurabilityError::UnsupportedVersion { found: 2 })
            | ("v3", DurabilityError::UnsupportedVersion { found: 3 }) => {}
            ("v1" | "v2" | "v3", _) => panic!("{what} blob: {error:?}"),
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

/// The checkpoint wave and the last wave of the refit-rule runs.
const CHECKPOINT_WAVE: u64 = 41;
const TOTAL_WAVES: u64 = 80;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "smartflux-engine-state-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `config` with durability in `dir`, checkpointing only when asked.
fn durable(config: EngineConfig, dir: &Path) -> EngineConfig {
    config.with_durability(DurabilityOptions::new(dir).with_checkpoint_interval(10_000))
}

fn session(config: EngineConfig) -> SmartFluxSession {
    let store = DataStore::new();
    SmartFluxSession::new(workflow(&store), store, config).unwrap()
}

/// What a run does to its session ahead of each wave, besides running it.
type Hook = fn(&mut SmartFluxSession);

/// A run that only runs waves.
fn no_hook(_: &mut SmartFluxSession) {}

/// Runs `session` through [`TOTAL_WAVES`], calling `hook` ahead of each
/// wave: its diagnostics from here on, and the store (cells, timestamps,
/// clock) it ends with.
fn finish(session: &mut SmartFluxSession, hook: Hook) -> (Vec<WaveDiagnostics>, StoreState) {
    let from = session.scheduler().next_wave();
    while session.scheduler().next_wave() <= TOTAL_WAVES {
        hook(session);
        session.run_wave().unwrap();
    }
    let tail = session
        .engine()
        .with(|e| e.diagnostics().since(from).cloned().collect());
    (tail, session.scheduler().store().export_state())
}

/// One wave's diagnostics with every f64 as its bits: wave, impacts,
/// errors, decisions, training.
type WaveBits = (u64, Vec<u64>, Vec<u64>, Vec<bool>, bool);

/// A diagnostics trail with every f64 as its bits, so `-0.0` / `0.0` or a
/// NaN cannot pass or fail `==` by accident.
fn bits(trail: &[WaveDiagnostics]) -> Vec<WaveBits> {
    let as_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
    trail
        .iter()
        .map(|d| {
            let impacts = as_bits(&d.impacts);
            let errors = as_bits(d.errors());
            (d.wave, impacts, errors, d.decisions.clone(), d.training)
        })
        .collect()
}

/// What the predictor is, as far as an oracle can compare it: each label's
/// forest arena and the step rule compiled from it (its cuts and vote
/// bits), its probabilities over a probe grid of impact vectors, and the
/// recorded test-phase quality.
#[derive(Debug, PartialEq)]
struct ModelPrint {
    forests: Vec<TreeArena>,
    rules: Vec<StepRule>,
    probabilities: Vec<Vec<u64>>,
    quality: Option<(u64, u64, u64)>,
}

fn model_print(engine: &SharedEngine) -> ModelPrint {
    engine.with(|e| {
        let p = e.predictor();
        let labels = e.qod_step_names().len();
        let forests = (0..labels)
            .filter_map(|j| p.forest(j).map(|f| f.arena().clone()))
            .collect();
        let rules = (0..labels).filter_map(|j| p.rule(j).cloned()).collect();
        let probabilities = (0..40)
            .filter_map(|i| {
                let impacts = vec![f64::from(i) * 0.05; labels];
                p.predict_proba(&impacts).ok()
            })
            .map(|probs| probs.iter().map(|x| x.to_bits()).collect())
            .collect();
        let quality = p.quality().map(|q| {
            (
                q.accuracy.to_bits(),
                q.precision.to_bits(),
                q.recall.to_bits(),
            )
        });
        ModelPrint {
            forests,
            rules,
            probabilities,
            quality,
        }
    })
}

/// Checkpoints a durable run of `config` at `checkpoint`, runs on past it
/// and drops it (the kill), recovers from the checkpoint and finishes the
/// schedule: the resumed run must make the uninterrupted run's decisions
/// on the same impact bits and end on its store bytes and clock. Returns
/// the checkpointing and the recovered predictors, as the recovered one
/// stood before its first wave. Every run calls `hook` ahead of each of
/// its waves.
fn kill_and_recover(
    config: &EngineConfig,
    checkpoint: u64,
    what: &str,
    hook: Hook,
) -> [ModelPrint; 2] {
    let reference = finish(&mut session(config.clone()), hook);
    assert_eq!(reference.0.len() as u64, TOTAL_WAVES, "{what}");

    let dir = tmp_dir(what);
    let config = durable(config.clone(), &dir);
    let mut doomed = session(config.clone());
    while doomed.scheduler().next_wave() <= checkpoint {
        hook(&mut doomed);
        doomed.run_wave().unwrap();
    }
    assert!(doomed.checkpoint().unwrap(), "{what}");
    let checkpointed = model_print(&doomed.engine());
    doomed.run_waves(5).unwrap();
    drop(doomed);

    let mut resumed = SmartFluxSession::recover(workflow(&DataStore::new()), config)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(resumed.scheduler().next_wave(), checkpoint + 1, "{what}");
    let refit = model_print(&resumed.engine());
    let (trail, store) = finish(&mut resumed, hook);
    assert_eq!(
        bits(&trail),
        bits(&reference.0[checkpoint as usize..]),
        "{what}: decision trail"
    );
    assert_eq!(store, reference.1, "{what}: store bytes and clock");
    let _ = std::fs::remove_dir_all(&dir);
    [checkpointed, refit]
}

#[test]
fn recovery_refits_the_predictor_the_uninterrupted_run_used() {
    let base = config(AccumulationMode::Cancel);

    // (a) The application phase: the refit forests are the checkpointing
    // engine's, node for node, and so are their rules, cut for cut and vote
    // bit for vote bit.
    let [live, refit] = kill_and_recover(&base, CHECKPOINT_WAVE, "application", no_hook);
    assert_eq!(live.forests.len(), 2, "one forest per QoD step");
    assert_eq!(live.rules.len(), 2, "one rule per QoD step");
    assert_eq!(refit, live, "application: refit predictor");

    // (c) A session started from a training set given beforehand: the blob
    // carries that set as its knowledge base, and the refit is the model
    // the session started with.
    let mut donor = session(base.clone());
    donor.run_waves(30).unwrap();
    let given = base.clone().with_initial_knowledge(donor.knowledge_base());
    let [live, refit] = kill_and_recover(&given, 15, "initial-knowledge", no_hook);
    assert_eq!(live.forests.len(), 2);
    assert_eq!(refit, live, "initial knowledge: refit predictor");

    // (b) Mid-retraining: application waves 26–35, then a fresh training
    // phase (waves 36–60), requested ahead of wave 36 in every run, whose
    // knowledge base no longer holds the rows the live model was fit on.
    // The checkpoint at wave 45 falls inside it. The recovered predictor
    // stays untrained — nothing consults it before that phase ends and
    // rebuilds it — and the run still ends where the uninterrupted one
    // does.
    let retrain_before_wave_36: Hook = |s| {
        if s.scheduler().next_wave() == 36 {
            s.request_training(25);
        }
    };
    let [live, refit] = kill_and_recover(&base, 45, "retraining", retrain_before_wave_36);
    assert_eq!(live.forests.len(), 2, "the live model outlives its rows");
    assert!(refit.forests.is_empty() && refit.rules.is_empty() && refit.probabilities.is_empty());
    assert_eq!(refit.quality, live.quality);

    // (e) The first training phase, before any model exists.
    let [live, refit] = kill_and_recover(&base, 13, "first-training", no_hook);
    assert!(live.quality.is_none());
    assert_eq!(refit, live);
}

/// `blob` with its body replaced by `edit(body)`, re-framed under a valid
/// CRC — damage the frame cannot see.
fn reframed(blob: &[u8], edit: impl FnOnce(&[u8]) -> Vec<u8>) -> Vec<u8> {
    let FrameRead::Frame { payload, .. } = read_frame(blob, 6).unwrap() else {
        panic!("a whole blob holds one frame");
    };
    let mut out = blob[..6].to_vec();
    write_frame(&mut out, &edit(payload));
    out
}

#[test]
fn a_blob_the_config_cannot_refit_is_refused_and_changes_nothing() {
    let store = DataStore::new();
    let (engine, mut scheduler) = stand_up(&store, AccumulationMode::Cancel);
    run(&mut scheduler, CHECKPOINT_WAVE);
    assert_eq!(engine.with(QodEngine::phase), Phase::Application);
    let blob = engine.with(QodEngine::export_state);

    // Forests used to carry themselves; now the config must be the one the
    // models are a function of.
    // Every field of the identity counts on its own: each forest row
    // changes exactly one parameter of the default forest.
    let base = config(AccumulationMode::Cancel);
    let forest = |trees, max_depth, threshold| {
        base.clone().with_model(ModelKind::RandomForest {
            trees,
            max_depth,
            threshold,
        })
    };
    assert_eq!(base.model, forest(60, 12, 0.5).model, "the default forest");
    for (what, other) in [
        ("another seed", base.clone().with_seed(4)),
        ("another tree count", forest(61, 12, 0.5)),
        ("another depth", forest(60, 13, 0.5)),
        ("another threshold", forest(60, 12, 0.45)),
    ] {
        let target = stand_up_with(&DataStore::from_state(store.export_state()).unwrap(), other).0;
        let pristine = target.with(QodEngine::export_state);
        let error = durability_error(target.with_mut(|e| e.import_state(&blob)));
        assert!(
            matches!(error, DurabilityError::Corrupt { .. }),
            "{what}: {error:?}"
        );
        assert_eq!(target.with(QodEngine::export_state), pristine, "{what}");
    }

    // An application-phase blob whose knowledge base is two rows: the phase
    // tag of a wave-2 training blob flipped, its `until_wave` dropped.
    let (early, mut early_scheduler) = stand_up(&DataStore::new(), AccumulationMode::Cancel);
    run(&mut early_scheduler, 2);
    let training = early.with(QodEngine::export_state);
    let unfittable = reframed(&training, |body| {
        assert_eq!(body[0], 0, "a training-phase tag");
        [&[1u8][..], &body[9..]].concat()
    });
    let target = stand_up(&DataStore::new(), AccumulationMode::Cancel).0;
    let pristine = target.with(QodEngine::export_state);
    let error = durability_error(target.with_mut(|e| e.import_state(&unfittable)));
    assert!(
        matches!(&error, DurabilityError::Corrupt { context } if context.contains("fitted")),
        "{error:?}"
    );
    assert_eq!(target.with(QodEngine::export_state), pristine);
    // The same bytes in the training phase they came from import fine.
    target.with_mut(|e| e.import_state(&training)).unwrap();
    assert_eq!(target.with(QodEngine::export_state), training);
}

#[test]
fn an_application_blob_with_output_changes_decodes_and_drops_them() {
    // What a writer that kept folding outputs after training left: an
    // application-phase blob whose output change sets are not empty. Made
    // here from a wave-24 training blob (Cancel mode, so every set holds
    // the changes since its step's last virtual execution), its phase tag
    // flipped and its `until_wave` dropped.
    let store = DataStore::new();
    let (early, mut scheduler) = stand_up(&store, AccumulationMode::Cancel);
    run(&mut scheduler, 24);
    let training = early.with(QodEngine::export_state);
    let older = reframed(&training, |body| {
        assert_eq!(body[0], 0, "a training-phase tag");
        [&[1u8][..], &body[9..]].concat()
    });

    let restore = |blob: &[u8]| {
        let copy = DataStore::from_state(store.export_state()).unwrap();
        let (engine, mut scheduler) = stand_up(&copy, AccumulationMode::Cancel);
        engine.with_mut(|e| e.import_state(blob)).unwrap();
        scheduler.resume(25);
        (engine, scheduler)
    };
    let (from_older, mut older_run) = restore(&older);
    assert_eq!(from_older.with(QodEngine::phase), Phase::Application);
    // The output sets are paused on import: the engine re-exports them
    // empty, and that blob restores the same engine.
    let current = from_older.with(QodEngine::export_state);
    assert!(current.len() < older.len(), "output changes were dropped");
    let (from_current, mut current_run) = restore(&current);
    assert_eq!(from_current.with(QodEngine::export_state), current);

    // Application decisions never read an output set: both runs agree.
    run(&mut older_run, 20);
    run(&mut current_run, 20);
    assert_eq!(bits(&tail(&from_older, 25)), bits(&tail(&from_current, 25)));
    assert_eq!(
        older_run.store().export_state(),
        current_run.store().export_state()
    );
}
