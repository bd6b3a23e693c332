//! The crash windows of a checkpoint, built by doing its steps by hand.
//!
//! A checkpoint is: capture in memory → write `checkpoint.ckpt.tmp` →
//! fsync → rename over `checkpoint.ckpt` → directory sync → write the
//! WAL's kept suffix to `wal.tmp` → fsync → rename over `wal.log`. A
//! process can die between any two of these. Whatever the directory then
//! holds, `recover_store` must land on exactly the state and clock of the
//! run that was never interrupted, and a manager reopened on the
//! directory must keep checkpointing.

use std::path::{Path, PathBuf};

use smartflux_datastore::{DataStore, StoreState, Value};
use smartflux_durability::{
    read_checkpoint, read_wal, recover_store, write_checkpoint, Checkpoint, DurabilityManager,
    DurabilityOptions, SyncPolicy, CHECKPOINT_FILE, WAL_FILE,
};

/// The checkpoint whose windows are exercised is taken at this wave …
const CHECKPOINT_WAVE: u64 = 6;
/// … after an earlier one at this wave, with this many waves committed.
const OLD_CHECKPOINT_WAVE: u64 = 3;
const LAST_WAVE: u64 = 8;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "smartflux-crash-windows-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn options(dir: &Path) -> DurabilityOptions {
    DurabilityOptions::new(dir)
        .with_sync(SyncPolicy::Never)
        .with_checkpoint_interval(1 << 40)
}

fn store_with_tf() -> DataStore {
    let s = DataStore::new();
    s.create_table("t").unwrap();
    s.create_family("t", "f").unwrap();
    s
}

/// One wave's writes: an overwrite, a fresh cell, and a delete.
fn write_wave(store: &DataStore, wave: u64) {
    store
        .put("t", "f", "r", "q", Value::from(wave as f64))
        .unwrap();
    store
        .put("t", "f", &format!("r{wave}"), "extra", Value::from("txt"))
        .unwrap();
    if wave > 1 {
        store
            .delete("t", "f", &format!("r{}", wave - 1), "extra")
            .unwrap();
    }
}

/// What a crash left behind, and what recovery must make of it.
struct Scene {
    /// The checkpoint captured at [`CHECKPOINT_WAVE`], not written yet.
    captured: Checkpoint,
    /// State and clock after [`LAST_WAVE`] — the uninterrupted run's.
    expected: StoreState,
}

/// Commits waves `1..=LAST_WAVE` into `dir` with a checkpoint at
/// [`OLD_CHECKPOINT_WAVE`], and captures — only captures — one at
/// [`CHECKPOINT_WAVE`]: window (a), every later wave in the WAL.
fn stage(dir: &Path) -> Scene {
    let mgr = DurabilityManager::open(options(dir)).unwrap();
    let store = store_with_tf();
    let _h = mgr.attach(&store);
    let mut captured = None;
    for wave in 1..=LAST_WAVE {
        write_wave(&store, wave);
        mgr.commit_wave(wave, store.clock()).unwrap();
        if wave == OLD_CHECKPOINT_WAVE {
            mgr.checkpoint(wave, &store, b"old".to_vec()).unwrap();
        }
        if wave == CHECKPOINT_WAVE {
            let state = store.export_state();
            captured = Some(Checkpoint {
                wave,
                clock: state.clock,
                store: state,
                engine: b"new".to_vec(),
            });
        }
    }
    Scene {
        captured: captured.unwrap(),
        expected: store.export_state(),
    }
}

/// The bytes `write_checkpoint` produces for `checkpoint`.
fn checkpoint_bytes(checkpoint: &Checkpoint) -> Vec<u8> {
    let dir = tmp_dir("bytes");
    write_checkpoint(&dir, checkpoint).unwrap();
    let bytes = std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    bytes
}

/// Recovers `dir`, checks it against the uninterrupted run, then reopens
/// a manager on it and runs two more waves with a checkpoint in between:
/// leftovers of the crash must not get in the way of the next one.
fn assert_recovers(dir: &Path, scene: &Scene, checkpoint_wave: u64, what: &str) {
    let recovered = recover_store(dir).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(recovered.checkpoint_wave, checkpoint_wave, "{what}");
    assert_eq!(recovered.last_wave, LAST_WAVE, "{what}");
    assert!(!recovered.torn_tail, "{what}");
    assert_eq!(recovered.store.export_state(), scene.expected, "{what}");
    assert_eq!(recovered.store.clock(), scene.expected.clock, "{what}");

    let mgr = DurabilityManager::open(options(dir)).unwrap();
    let store = recovered.store;
    let _h = mgr.attach(&store);
    write_wave(&store, LAST_WAVE + 1);
    mgr.commit_wave(LAST_WAVE + 1, store.clock()).unwrap();
    mgr.checkpoint(LAST_WAVE + 1, &store, Vec::new()).unwrap();
    write_wave(&store, LAST_WAVE + 2);
    mgr.commit_wave(LAST_WAVE + 2, store.clock()).unwrap();
    let again = recover_store(dir).unwrap_or_else(|e| panic!("{what}, continued: {e}"));
    assert_eq!(again.checkpoint_wave, LAST_WAVE + 1, "{what}");
    assert_eq!(again.last_wave, LAST_WAVE + 2, "{what}");
    assert_eq!(again.store.export_state(), store.export_state(), "{what}");
    // The checkpoint superseded everything but the last wave.
    let log = read_wal(&dir.join(WAL_FILE)).unwrap();
    assert_eq!(
        log.batches.iter().map(|b| b.wave).collect::<Vec<_>>(),
        [LAST_WAVE + 2],
        "{what}"
    );
}

#[test]
fn captured_but_nothing_written() {
    let dir = tmp_dir("a");
    let scene = stage(&dir);
    assert_recovers(&dir, &scene, OLD_CHECKPOINT_WAVE, "window (a)");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn temporary_checkpoint_beside_the_old_one() {
    // Died while writing — or right before renaming — the temporary
    // file: whole, half and empty.
    let bytes = {
        let dir = tmp_dir("b-bytes");
        let scene = stage(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
        checkpoint_bytes(&scene.captured)
    };
    for keep in [bytes.len(), bytes.len() / 2, 0] {
        let dir = tmp_dir("b");
        let scene = stage(&dir);
        std::fs::write(dir.join(format!("{CHECKPOINT_FILE}.tmp")), &bytes[..keep]).unwrap();
        assert_recovers(
            &dir,
            &scene,
            OLD_CHECKPOINT_WAVE,
            &format!("window (b), {keep} bytes"),
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn checkpoint_renamed_but_wal_not_compacted() {
    let dir = tmp_dir("c");
    let scene = stage(&dir);
    write_checkpoint(&dir, &scene.captured).unwrap();
    // The log still starts behind the *old* checkpoint: recovery skips
    // what the new one covers.
    let log = read_wal(&dir.join(WAL_FILE)).unwrap();
    assert_eq!(log.batches.first().unwrap().wave, OLD_CHECKPOINT_WAVE + 1);
    assert_eq!(read_checkpoint(&dir).unwrap().unwrap().engine, b"new");
    assert_recovers(&dir, &scene, CHECKPOINT_WAVE, "window (c)");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn temporary_wal_beside_the_log() {
    // Died inside the compaction: `wal.tmp` holds some or all of the
    // suffix the new log would have had.
    let dir = tmp_dir("d-bytes");
    stage(&dir);
    let log = std::fs::read(dir.join(WAL_FILE)).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    for keep in [log.len(), log.len() / 3, 0] {
        let dir = tmp_dir("d");
        let scene = stage(&dir);
        write_checkpoint(&dir, &scene.captured).unwrap();
        std::fs::write(
            dir.join(WAL_FILE).with_extension("tmp"),
            &log[log.len() - keep..],
        )
        .unwrap();
        assert_recovers(
            &dir,
            &scene,
            CHECKPOINT_WAVE,
            &format!("window (d), {keep} bytes"),
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn periodic_and_explicit_checkpoints_write_the_same_bytes() {
    // `maybe_checkpoint` on its interval and `checkpoint` are one path:
    // over the same state they leave the same file, and the same log.
    let files = |periodic: bool| {
        let dir = tmp_dir(if periodic { "periodic" } else { "explicit" });
        let mgr = DurabilityManager::open(options(&dir).with_checkpoint_interval(4)).unwrap();
        let store = store_with_tf();
        let _h = mgr.attach(&store);
        for wave in 1..=5 {
            write_wave(&store, wave);
            mgr.commit_wave(wave, store.clock()).unwrap();
            if periodic {
                let due = mgr
                    .maybe_checkpoint(wave, &store, || b"engine".to_vec())
                    .unwrap();
                assert_eq!(due, wave == 4);
            } else if wave == 4 {
                mgr.checkpoint(wave, &store, b"engine".to_vec()).unwrap();
            }
        }
        let files = (
            std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap(),
            std::fs::read(dir.join(WAL_FILE)).unwrap(),
        );
        std::fs::remove_dir_all(&dir).unwrap();
        files
    };
    assert_eq!(files(true), files(false));
}
