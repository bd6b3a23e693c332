//! The crash windows of a checkpoint, at session level.
//!
//! A session's checkpoint is: capture in memory → overwrite the spare
//! `checkpoint.ckpt.tmp` (the previous checkpoint's file) → fsync → link
//! `checkpoint.ckpt` as `checkpoint.ckpt.prev` → rename the spare over
//! `checkpoint.ckpt` → rename `.prev` to the spare. The directories a
//! crash can leave — (a) captured, nothing written; (b) the new checkpoint
//! in the spare beside the old one; (c) the new checkpoint swapped in;
//! (e) (b) plus `.prev`, a second name of the old checkpoint; (f) the new
//! checkpoint renamed, the old one still at `.prev` — plus (d) stale
//! `wal.log` / `wal.tmp` bytes from the store-level log beside it are
//! handed to [`SmartFluxSession::recover`]: the resumed session must
//! finish the schedule with the decisions, store bytes and clock of the
//! run that was never interrupted.

use std::path::{Path, PathBuf};

use smartflux::{DurabilityOptions, EngineConfig, QodEngine, SmartFluxSession, WaveDiagnostics};
use smartflux_datastore::{ContainerRef, DataStore, StoreState, Value};
use smartflux_durability::{write_checkpoint, Checkpoint, CHECKPOINT_FILE};
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
        session.diagnostics().iter().cloned().collect(),
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

/// The bytes `write_checkpoint` produces for `checkpoint`, written in a
/// directory of its own named after `window`.
fn checkpoint_bytes(window: &str, checkpoint: &Checkpoint) -> Vec<u8> {
    let dir = tmp_dir(&format!("{window}-bytes"));
    std::fs::create_dir_all(&dir).unwrap();
    write_checkpoint(&dir, checkpoint).unwrap();
    let bytes = std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    bytes
}

/// The spare and the swap's second name for the live checkpoint.
fn spare(dir: &Path) -> PathBuf {
    dir.join(format!("{CHECKPOINT_FILE}.tmp"))
}

fn prev(dir: &Path) -> PathBuf {
    dir.join(format!("{CHECKPOINT_FILE}.prev"))
}

#[cfg(unix)]
fn inode(path: &Path) -> u64 {
    use std::os::unix::fs::MetadataExt;
    std::fs::metadata(path).unwrap().ino()
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
    std::fs::remove_dir_all(&dir).unwrap();

    // (b) The new checkpoint in the spare — whole, or cut short — beside
    // the old one.
    for whole in [true, false] {
        let dir = tmp_dir("b");
        let captured = doomed_run(&dir);
        let mut bytes = checkpoint_bytes("b", &captured);
        if !whole {
            bytes.truncate(bytes.len() / 2);
        }
        std::fs::write(spare(&dir), bytes).unwrap();
        assert_resumes_like(
            &dir,
            OLD_CHECKPOINT_WAVE + 1,
            &reference,
            &format!("window (b), whole: {whole}"),
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // (c) New checkpoint swapped in.
    let dir = tmp_dir("c");
    let captured = doomed_run(&dir);
    write_checkpoint(&dir, &captured).unwrap();
    assert_resumes_like(&dir, CHECKPOINT_WAVE + 1, &reference, "window (c)");
    std::fs::remove_dir_all(&dir).unwrap();

    // (d) … beside stale store-level log files, which a session neither
    // writes nor reads.
    let dir = tmp_dir("d");
    let captured = doomed_run(&dir);
    write_checkpoint(&dir, &captured).unwrap();
    assert!(!dir.join("wal.log").exists(), "a session created a log");
    let stale: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
    std::fs::write(dir.join("wal.log"), &stale).unwrap();
    std::fs::write(dir.join("wal.tmp"), &stale[..stale.len() / 3]).unwrap();
    assert_resumes_like(&dir, CHECKPOINT_WAVE + 1, &reference, "window (d)");
    std::fs::remove_dir_all(&dir).unwrap();

    // (e) Died after linking the live checkpoint as `.prev`: the old
    // checkpoint is live, the new one whole in the spare. The next
    // checkpoint drops `.prev` and writes into the spare, so the old live
    // file's bytes become the next spare untouched.
    let dir = tmp_dir("e");
    let captured = doomed_run(&dir);
    let live = dir.join(CHECKPOINT_FILE);
    std::fs::hard_link(&live, prev(&dir)).unwrap();
    std::fs::write(spare(&dir), checkpoint_bytes("e", &captured)).unwrap();
    let old = std::fs::read(&live).unwrap();
    assert_resumes_like(&dir, OLD_CHECKPOINT_WAVE + 1, &reference, "window (e)");
    assert!(!prev(&dir).exists(), "window (e): `.prev` left behind");
    assert_eq!(std::fs::read(spare(&dir)).unwrap(), old, "window (e)");
    std::fs::remove_dir_all(&dir).unwrap();

    // (f) Died after renaming the spare over the live checkpoint: the new
    // checkpoint is live, the old one at `.prev`, no spare. The next
    // checkpoint takes `.prev`'s file for its spare.
    let dir = tmp_dir("f");
    let captured = doomed_run(&dir);
    let live = dir.join(CHECKPOINT_FILE);
    std::fs::hard_link(&live, prev(&dir)).unwrap();
    std::fs::write(spare(&dir), checkpoint_bytes("f", &captured)).unwrap();
    std::fs::rename(spare(&dir), &live).unwrap();
    #[cfg(unix)]
    let old_inode = inode(&prev(&dir));
    assert_resumes_like(&dir, CHECKPOINT_WAVE + 1, &reference, "window (f)");
    assert!(!prev(&dir).exists(), "window (f): `.prev` left behind");
    #[cfg(unix)]
    assert_eq!(inode(&live), old_inode, "window (f)");
    std::fs::remove_dir_all(&dir).unwrap();
}
