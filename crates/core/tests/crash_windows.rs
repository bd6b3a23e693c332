//! The crash windows of a checkpoint, at session level.
//!
//! The store-level battery (`crates/durability/tests/crash_windows.rs`)
//! shows that `recover_store` lands on the uninterrupted state whatever
//! step of a checkpoint the process died in. Here the same four
//! directories — (a) captured, nothing written; (b) `checkpoint.ckpt.tmp`
//! beside the old checkpoint; (c) new checkpoint renamed, WAL not
//! compacted; (d) `wal.tmp` beside the log — are handed to
//! [`SmartFluxSession::recover`]: the resumed session must finish the
//! schedule with the decisions, store bytes and clock of the run that was
//! never interrupted.

use std::path::{Path, PathBuf};

use smartflux::{DurabilityOptions, EngineConfig, QodEngine, SmartFluxSession, WaveDiagnostics};
use smartflux_datastore::{ContainerRef, DataStore, StoreState, Value};
use smartflux_durability::{write_checkpoint, Checkpoint, CHECKPOINT_FILE, WAL_FILE};
use smartflux_wms::{FnStep, GraphBuilder, StepContext, Workflow};

/// The periodic checkpoint every window keeps (the "old" one) …
const OLD_CHECKPOINT_WAVE: u64 = 30;
/// … the wave of the checkpoint the process dies in …
const CHECKPOINT_WAVE: u64 = 45;
/// … the wave it dies after, and where the schedule ends.
const KILL_WAVE: u64 = 50;
const TOTAL_WAVES: u64 = 70;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "smartflux-session-windows-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `feed → smooth`: six drifting cells and a smoothed, QoD-managed copy.
fn workflow(store: &DataStore) -> Workflow {
    let raw = ContainerRef::family("t", "raw");
    let smooth = ContainerRef::family("t", "smooth");
    for c in [&raw, &smooth] {
        store.ensure_container(c).unwrap();
    }
    let mut g = GraphBuilder::new("crash-windows");
    let feed = g.add_step("feed");
    let smoother = g.add_step("smooth");
    g.add_edge(feed, smoother).unwrap();
    let mut wf = Workflow::new(g.build().unwrap());
    wf.bind(
        feed,
        FnStep::new(|ctx: &StepContext| {
            let w = ctx.wave() as f64;
            for i in 0..6 {
                let v = 50.0 + ((w + f64::from(i) * 3.0) / 5.0).sin() * (1.0 + f64::from(i));
                ctx.put("t", "raw", "row", &format!("s{i}"), Value::from(v))?;
            }
            Ok(())
        }),
    )
    .source()
    .writes(raw.clone());
    wf.bind(
        smoother,
        FnStep::new(|ctx: &StepContext| {
            for i in 0..6 {
                let q = format!("s{i}");
                let v = ctx.get_f64("t", "raw", "row", &q, 0.0)?;
                let prev = ctx.get_f64("t", "smooth", "row", &q, v)?;
                ctx.put("t", "smooth", "row", &q, Value::from(0.7 * prev + 0.3 * v))?;
            }
            Ok(())
        }),
    )
    .reads(raw)
    .writes(smooth)
    .error_bound(0.02);
    wf
}

fn config(dir: &Path) -> EngineConfig {
    EngineConfig::new()
        .with_training_waves(25)
        .with_quality_gates(0.0, 0.0)
        .with_seed(3)
        .with_durability(DurabilityOptions::new(dir).with_checkpoint_interval(OLD_CHECKPOINT_WAVE))
}

fn fresh_session(dir: &Path) -> SmartFluxSession {
    let store = DataStore::new();
    let wf = workflow(&store);
    SmartFluxSession::new(wf, store, config(dir)).unwrap()
}

fn finish(session: &mut SmartFluxSession) -> (Vec<WaveDiagnostics>, StoreState) {
    while session.scheduler().next_wave() <= TOTAL_WAVES {
        session.run_wave().unwrap();
    }
    (
        session.diagnostics(),
        session.scheduler().store().export_state(),
    )
}

/// Runs a session to [`KILL_WAVE`] in `dir` — one periodic checkpoint at
/// [`OLD_CHECKPOINT_WAVE`], nothing later on disk — capturing, but
/// not writing, a checkpoint at [`CHECKPOINT_WAVE`]. Dropping the session
/// is the crash.
fn doomed_run(dir: &Path) -> Checkpoint {
    let mut session = fresh_session(dir);
    let mut captured = None;
    for wave in 1..=KILL_WAVE {
        session.run_wave().unwrap();
        if wave == CHECKPOINT_WAVE {
            let state = session.scheduler().store().export_state();
            captured = Some(Checkpoint {
                wave,
                clock: state.clock,
                store: state,
                engine: session.engine().with(QodEngine::export_state),
            });
        }
    }
    captured.unwrap()
}

fn assert_resumes_like(
    dir: &Path,
    resume_wave: u64,
    reference: &(Vec<WaveDiagnostics>, StoreState),
    what: &str,
) {
    let wf = workflow(&DataStore::new());
    let mut resumed =
        SmartFluxSession::recover(wf, config(dir)).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(resumed.scheduler().next_wave(), resume_wave, "{what}");
    let (decisions, state) = finish(&mut resumed);
    assert_eq!(decisions.len() as u64, TOTAL_WAVES + 1 - resume_wave);
    assert_eq!(
        decisions,
        reference.0[resume_wave as usize - 1..],
        "{what}: decision trail"
    );
    assert_eq!(state, reference.1, "{what}: store bytes and clock");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn every_crash_window_resumes_to_the_uninterrupted_run() {
    let reference = {
        let dir = tmp_dir("reference");
        let mut session = fresh_session(&dir);
        let reference = finish(&mut session);
        drop(session);
        let _ = std::fs::remove_dir_all(&dir);
        reference
    };
    assert_eq!(reference.0.len() as u64, TOTAL_WAVES);

    // (a) Captured, nothing written.
    let dir = tmp_dir("a");
    doomed_run(&dir);
    assert_resumes_like(&dir, OLD_CHECKPOINT_WAVE + 1, &reference, "window (a)");

    // (b) The temporary checkpoint — whole, or cut short — beside the old
    // one.
    for whole in [true, false] {
        let dir = tmp_dir("b");
        let captured = doomed_run(&dir);
        let scratch = tmp_dir("b-bytes");
        std::fs::create_dir_all(&scratch).unwrap();
        write_checkpoint(&scratch, &captured).unwrap();
        let mut bytes = std::fs::read(scratch.join(CHECKPOINT_FILE)).unwrap();
        if !whole {
            bytes.truncate(bytes.len() / 2);
        }
        std::fs::write(dir.join(format!("{CHECKPOINT_FILE}.tmp")), bytes).unwrap();
        std::fs::remove_dir_all(&scratch).unwrap();
        assert_resumes_like(
            &dir,
            OLD_CHECKPOINT_WAVE + 1,
            &reference,
            &format!("window (b), whole: {whole}"),
        );
    }

    // (c) New checkpoint renamed; the log still starts behind the old one.
    let dir = tmp_dir("c");
    let captured = doomed_run(&dir);
    write_checkpoint(&dir, &captured).unwrap();
    assert_resumes_like(&dir, CHECKPOINT_WAVE + 1, &reference, "window (c)");

    // (d) … and the compaction's temporary file beside the log.
    let dir = tmp_dir("d");
    let captured = doomed_run(&dir);
    write_checkpoint(&dir, &captured).unwrap();
    let log = std::fs::read(dir.join(WAL_FILE)).unwrap();
    std::fs::write(
        dir.join(WAL_FILE).with_extension("tmp"),
        &log[log.len() / 2..],
    )
    .unwrap();
    assert_resumes_like(&dir, CHECKPOINT_WAVE + 1, &reference, "window (d)");
}
