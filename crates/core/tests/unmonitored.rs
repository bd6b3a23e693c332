//! Unmonitored steps: in the application phase a Cancel-mode step whose
//! rule runs it at every ι is not measured. Its input change sets pause,
//! its rows carry NaN for ι, recovery pauses them again, and a retraining
//! phase reopens them at the request. An Accumulate-mode step stays
//! monitored whatever its rule.

use std::path::PathBuf;

use smartflux::telemetry_names as names;
use smartflux::{
    AccumulationMode, DurabilityOptions, EngineConfig, ImpactCombiner, MetricKind, Phase,
    QodEngine, QodSpec, SharedEngine, SmartFluxSession, WaveDiagnostics,
};
use smartflux_datastore::{ContainerRef, DataStore, Value};
use smartflux_durability::codec::{read_frame, write_frame, FrameRead};
use smartflux_wms::{FnStep, GraphBuilder, Scheduler, StepContext, Workflow};

const TRAINING: usize = 30;

/// Row key of a cell only an external writer puts into `raw`; it reaches
/// an engine-state blob only through a change set.
const EXTERNAL_ROW: &str = "external-row";

/// `feed → copy`, `feed → gate`. `feed` moves each of four `raw` cells by
/// +1 every wave and `slow` by +10 every fifth wave. `copy` copies `raw`
/// under a bound every wave breaks, so every label is "run" and its rule
/// runs it at every ι; `gate` copies `slow`, and its rule skips the waves
/// `slow` stands still.
fn workflow(store: &DataStore) -> Workflow {
    for family in ["raw", "slow", "copy", "gate"] {
        store
            .ensure_container(&ContainerRef::family("t", family))
            .unwrap();
    }
    let mut g = GraphBuilder::new("unmonitored");
    let feed = g.add_step("feed");
    let copy = g.add_step("copy");
    let gate = g.add_step("gate");
    g.add_edge(feed, copy).unwrap();
    g.add_edge(feed, gate).unwrap();
    let mut wf = Workflow::new(g.build().unwrap());
    wf.bind(
        feed,
        FnStep::new(|ctx: &StepContext| {
            let w = ctx.wave() as f64;
            for i in 0..4 {
                let v = Value::from(w + f64::from(i));
                ctx.put("t", "raw", "r", &format!("s{i}"), v)?;
            }
            let slow = (ctx.wave() / 5) as f64 * 10.0 + 10.0;
            ctx.put("t", "slow", "r", "v", Value::from(slow))?;
            Ok(())
        }),
    )
    .source()
    .writes(ContainerRef::family("t", "raw"))
    .writes(ContainerRef::family("t", "slow"));
    wf.bind(
        copy,
        FnStep::new(|ctx: &StepContext| {
            for i in 0..4 {
                let q = format!("s{i}");
                let v = ctx.get_f64("t", "raw", "r", &q, 0.0)?;
                ctx.put("t", "copy", "r", &q, Value::from(v))?;
            }
            Ok(())
        }),
    )
    .reads(ContainerRef::family("t", "raw"))
    .writes(ContainerRef::family("t", "copy"))
    .error_bound(1e-6);
    wf.bind(
        gate,
        FnStep::new(|ctx: &StepContext| {
            let v = ctx.get_f64("t", "slow", "r", "v", 0.0)?;
            ctx.put("t", "gate", "r", "v", Value::from(v))?;
            Ok(())
        }),
    )
    .reads(ContainerRef::family("t", "slow"))
    .writes(ContainerRef::family("t", "gate"))
    .error_bound(0.05);
    wf
}

/// Eq. 1 impact of the one input: `copy`'s ι is `Σ|Δ| × m = 4 × 4` on
/// every wave after its last execution.
fn spec(mode: AccumulationMode) -> QodSpec {
    QodSpec::new()
        .with_mode(mode)
        .with_impact(MetricKind::Magnitude)
        .with_combiner(ImpactCombiner::Sum)
}

fn config() -> EngineConfig {
    EngineConfig::new()
        .with_training_waves(TRAINING)
        .with_quality_gates(0.0, 0.0)
        .with_default_spec(spec(AccumulationMode::Cancel))
        .with_seed(5)
}

fn session(config: EngineConfig) -> SmartFluxSession {
    let store = DataStore::new();
    SmartFluxSession::new(workflow(&store), store, config).unwrap()
}

/// QoD index of `name`.
fn index(session: &SmartFluxSession, name: &str) -> usize {
    session.engine().with(|e| {
        let names = e.qod_step_names();
        names.iter().position(|n| *n == name).unwrap()
    })
}

fn monitored(session: &SmartFluxSession, name: &str) -> bool {
    let j = index(session, name);
    session.engine().with(|e| e.monitored(j))
}

fn always_runs(session: &SmartFluxSession, name: &str) -> bool {
    let j = index(session, name);
    session
        .engine()
        .with(|e| e.predictor().rule(j).unwrap().always_runs())
}

fn rows_since(session: &SmartFluxSession, wave: u64) -> Vec<WaveDiagnostics> {
    session
        .engine()
        .with(|e| e.diagnostics().since(wave).cloned().collect())
}

/// A write no step makes: a cell inserted into `raw`, which only a change
/// set over `raw` sees.
fn external_write(session: &SmartFluxSession, value: f64) {
    let store = session.scheduler().store();
    store
        .put("t", "raw", EXTERNAL_ROW, "s0", Value::from(value))
        .unwrap();
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

fn blob(session: &SmartFluxSession) -> Vec<u8> {
    session.engine().with(QodEngine::export_state)
}

#[test]
fn unmonitored_inputs_stream_nothing() {
    let mut session = session(config().with_telemetry(true));
    session.run_training().unwrap();
    assert_eq!(session.engine().with(QodEngine::phase), Phase::Application);
    assert!(always_runs(&session, "copy") && !always_runs(&session, "gate"));
    assert!(!monitored(&session, "copy"));
    assert!(monitored(&session, "gate"));

    let impacts = |s: &SmartFluxSession| {
        let snapshot = s.telemetry().snapshot();
        snapshot
            .histogram(names::IMPACT_LATENCY)
            .map_or(0, |h| h.count)
    };
    let before = impacts(&session);
    let from = session.scheduler().next_wave();
    for wave in 0..20 {
        external_write(&session, f64::from(wave));
        session.run_wave().unwrap();
    }
    // Only `gate`'s impact was computed.
    assert_eq!(impacts(&session) - before, 20);

    let (copy, gate) = (index(&session, "copy"), index(&session, "gate"));
    let rows = rows_since(&session, from);
    assert_eq!(rows.len(), 20);
    for row in &rows {
        assert!(!row.training);
        assert!(row.impacts[copy].is_nan(), "wave {}", row.wave);
        assert!(row.decisions[copy], "wave {}", row.wave);
        assert!(row.impacts[gate].is_finite(), "wave {}", row.wave);
    }
    // The external cell sits in `raw` since the last wave; no set kept it.
    external_write(&session, 99.0);
    assert!(!contains(&blob(&session), EXTERNAL_ROW.as_bytes()));
}

#[test]
fn accumulate_mode_steps_stay_monitored() {
    let config = config().with_step_spec("copy", spec(AccumulationMode::Accumulate));
    let mut session = session(config);
    session.run_training().unwrap();
    assert!(always_runs(&session, "copy"));
    assert!(monitored(&session, "copy"));
    let from = session.scheduler().next_wave();
    session.run_waves(10).unwrap();
    let copy = index(&session, "copy");
    for row in rows_since(&session, from) {
        // Last wave's change rolled in, plus this wave's.
        assert_eq!(row.impacts[copy], 32.0, "wave {}", row.wave);
    }
    external_write(&session, 99.0);
    assert!(contains(&blob(&session), EXTERNAL_ROW.as_bytes()));
}

#[test]
fn retraining_reopens_unmonitored_inputs_at_the_request() {
    // `write` ahead of the request, after it, or not at all: the first
    // retraining wave's ι of `copy`.
    let first_retraining_impact = |before: Option<f64>, after: Option<f64>| {
        let mut session = session(config());
        session.run_training().unwrap();
        session.run_waves(10).unwrap();
        assert!(!monitored(&session, "copy"));
        if let Some(value) = before {
            external_write(&session, value);
        }
        session.request_training(10);
        assert!(monitored(&session, "copy"));
        if let Some(value) = after {
            external_write(&session, value);
        }
        let from = session.scheduler().next_wave();
        session.run_waves(10).unwrap();
        let copy = index(&session, "copy");
        let rows = rows_since(&session, from);
        assert!(rows.iter().all(|r| r.training));
        // Every retraining wave measures `copy` again.
        assert!(rows.iter().skip(1).all(|r| r.impacts[copy] == 16.0));
        // And the next application phase stops again.
        session.run_wave().unwrap();
        assert!(!monitored(&session, "copy"));
        rows[0].impacts[copy]
    };
    // `copy` ran in the last application wave, which marked its inputs:
    // the reopened mark is the one a never-paused set had, and the ι is
    // the four cells' steps of one, as on every training wave.
    assert_eq!(first_retraining_impact(None, None), 16.0);
    let mut training = session(config());
    training.run_waves(10).unwrap();
    let copy = index(&training, "copy");
    assert_eq!(rows_since(&training, 5)[0].impacts[copy], 16.0);
    // The one difference: a write between the step's last run and the
    // request is behind the reopened mark, where a never-paused set would
    // have counted it, (4 + 100) × 5. After the request it counts.
    assert_eq!(first_retraining_impact(Some(100.0), None), 16.0);
    assert_eq!(first_retraining_impact(None, Some(100.0)), 520.0);
}

/// `blob` with its body replaced by `edit(body)`, re-framed under a valid
/// CRC.
fn reframed(blob: &[u8], edit: impl FnOnce(&[u8]) -> Vec<u8>) -> Vec<u8> {
    let FrameRead::Frame { payload, .. } = read_frame(blob, 6).unwrap() else {
        panic!("a whole blob holds one frame");
    };
    let mut out = blob[..6].to_vec();
    write_frame(&mut out, &edit(payload));
    out
}

#[test]
fn a_blob_with_unmonitored_input_changes_decodes_and_drops_them() {
    // What an engine that measured every step left: an application-phase
    // blob whose `copy` input set holds a change. Made from a training
    // blob (every set open) after an external write, its phase tag
    // flipped and its `until_wave` dropped.
    let mut early = session(config());
    early.run_waves(24).unwrap();
    external_write(&early, 7.0);
    let training = blob(&early);
    assert!(contains(&training, EXTERNAL_ROW.as_bytes()));
    let older = reframed(&training, |body| {
        assert_eq!(body[0], 0, "a training-phase tag");
        [&[1u8][..], &body[9..]].concat()
    });
    let store = early.scheduler().store().export_state();

    let restore = |bytes: &[u8]| {
        let copy = DataStore::from_state(store.clone()).unwrap();
        let wf = workflow(&copy);
        let engine = QodEngine::from_workflow(&wf, copy.clone(), config()).unwrap();
        let engine = SharedEngine::new(engine);
        engine.with_mut(|e| e.import_state(bytes)).unwrap();
        let mut scheduler = Scheduler::new(wf, copy, Box::new(engine.clone()));
        scheduler.resume(25);
        (engine, scheduler)
    };
    let copy = index(&early, "copy");
    let (from_older, mut older_run) = restore(&older);
    assert_eq!(from_older.with(QodEngine::phase), Phase::Application);
    assert!(!from_older.with(|e| e.monitored(copy)));
    // Re-exported, the set is empty, and that blob restores the same engine.
    let current = from_older.with(QodEngine::export_state);
    assert!(!contains(&current, EXTERNAL_ROW.as_bytes()));
    let (from_current, mut current_run) = restore(&current);
    assert_eq!(from_current.with(QodEngine::export_state), current);

    // No decision read the dropped change: both runs agree, bit for bit.
    let tail = |engine: &SharedEngine| -> Vec<WaveDiagnostics> {
        engine.with(|e| e.diagnostics().since(25).cloned().collect())
    };
    older_run.run_waves(15).unwrap();
    current_run.run_waves(15).unwrap();
    assert_eq!(tail(&from_older), tail(&from_current));
    assert_eq!(
        older_run.store().export_state(),
        current_run.store().export_state()
    );
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "smartflux-unmonitored-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn recovery_pauses_unmonitored_inputs_again() {
    const CHECKPOINT: u64 = TRAINING as u64 + 8;
    const TOTAL: u64 = TRAINING as u64 + 30;
    // Every run writes outside the workflow ahead of each wave.
    let finish = |session: &mut SmartFluxSession| {
        let from = session.scheduler().next_wave();
        while session.scheduler().next_wave() <= TOTAL {
            let wave = session.scheduler().next_wave() as f64;
            external_write(session, wave);
            session.run_wave().unwrap();
        }
        (
            rows_since(session, from),
            session.scheduler().store().export_state(),
        )
    };
    let reference = finish(&mut session(config()));

    let dir = tmp_dir("recover");
    let durable =
        config().with_durability(DurabilityOptions::new(&dir).with_checkpoint_interval(10_000));
    let mut doomed = session(durable.clone());
    while doomed.scheduler().next_wave() <= CHECKPOINT {
        let wave = doomed.scheduler().next_wave() as f64;
        external_write(&doomed, wave);
        doomed.run_wave().unwrap();
    }
    assert!(!monitored(&doomed, "copy"));
    assert!(doomed.checkpoint().unwrap());
    let checkpointed = blob(&doomed);
    doomed.run_waves(5).unwrap();
    drop(doomed);

    let mut resumed = SmartFluxSession::recover(workflow(&DataStore::new()), durable).unwrap();
    assert_eq!(resumed.scheduler().next_wave(), CHECKPOINT + 1);
    assert!(!monitored(&resumed, "copy"));
    assert!(monitored(&resumed, "gate"));
    assert_eq!(blob(&resumed), checkpointed);
    let (rows, store) = finish(&mut resumed);
    assert_eq!(rows, reference.0[CHECKPOINT as usize..]);
    assert_eq!(store, reference.1);
    let _ = std::fs::remove_dir_all(&dir);
}
