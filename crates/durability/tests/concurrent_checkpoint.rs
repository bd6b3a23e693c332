//! Durability under concurrent writers on one store.
//!
//! A checkpoint is a consistent cut (`export_state` quiesces writers), and
//! WAL replay skips ops at or below the cut's clock — so a checkpoint
//! taken *mid-stream*, while writer threads are still hammering the store,
//! must still recover to exactly the final store image: the checkpoint
//! holds the prefix, the WAL tail holds the rest, and nothing is lost or
//! applied twice.

#![allow(deprecated)] // exercises the store-level WAL kept for benchmark/

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

use smartflux_datastore::{DataStore, Value};
use smartflux_durability::{
    read_checkpoint, recover_store, DurabilityManager, DurabilityOptions, SyncPolicy,
};

const THREADS: usize = 4;
const PUTS_PER_THREAD: usize = 1_500;
const TABLE: &str = "t";
const FAMILIES: [&str; 4] = ["f0", "f1", "f2", "f3"];

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "smartflux-concurrent-ckpt-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn store_with_families() -> DataStore {
    let store = DataStore::new();
    store.create_table(TABLE).unwrap();
    for family in FAMILIES {
        store.create_family(TABLE, family).unwrap();
    }
    store
}

/// Spawns the writer storm; each thread writes a disjoint qualifier so the
/// final image is deterministic regardless of interleaving.
fn spawn_writers<'scope, 'env>(scope: &'scope std::thread::Scope<'scope, 'env>, store: &DataStore) {
    for t in 0..THREADS {
        let store = store.clone();
        scope.spawn(move || {
            for i in 0..PUTS_PER_THREAD {
                let family = FAMILIES[i % FAMILIES.len()];
                let row = format!("r{}", i % 32);
                let qual = format!("q{t}");
                let v = (t * PUTS_PER_THREAD + i) as i64;
                store
                    .put(TABLE, family, &row, &qual, Value::I64(v))
                    .unwrap();
            }
        });
    }
}

#[test]
fn mid_stream_checkpoint_under_concurrent_writers_recovers_exactly() {
    let dir = tmp_dir("mid-stream");
    let mgr =
        DurabilityManager::open(DurabilityOptions::new(&dir).with_sync(SyncPolicy::Never)).unwrap();
    let store = store_with_families();
    let _h = mgr.attach(&store);
    let total = (THREADS * PUTS_PER_THREAD) as u64;

    std::thread::scope(|scope| {
        spawn_writers(scope, &store);

        // Mid-stream, with writers still running: group-commit whatever is
        // buffered as wave 1, then checkpoint. The checkpoint quiesces the
        // store for a consistent cut and compacts the wave-1 batch away;
        // everything after the cut lands in the wave-2 batch below.
        while store.clock() < total / 4 {
            std::thread::yield_now();
        }
        mgr.commit_wave(1, store.clock()).unwrap();
        mgr.checkpoint(1, &store, b"engine-state".to_vec()).unwrap();

        // The checkpoint on disk is itself a valid, internally consistent
        // store image taken while writers were active.
        let ckpt = read_checkpoint(&dir).unwrap().expect("checkpoint written");
        assert_eq!(ckpt.wave, 1);
        assert_eq!(ckpt.clock, ckpt.store.clock);
        let rebuilt = DataStore::from_state(ckpt.store.clone()).unwrap();
        assert_eq!(rebuilt.export_state(), ckpt.store);
    });

    // Writers are done; commit the tail as wave 2.
    assert_eq!(store.clock(), total);
    mgr.commit_wave(2, store.clock()).unwrap();

    let r = recover_store(&dir).unwrap();
    assert_eq!(r.checkpoint_wave, 1);
    assert_eq!(r.last_wave, 2);
    assert!(!r.torn_tail);
    assert_eq!(r.engine_state, b"engine-state");
    // The acceptance bar: checkpoint prefix + WAL tail reconstruct the
    // exact final image — contents, version histories, timestamps, clock.
    assert_eq!(r.store.export_state(), store.export_state());
    assert_eq!(r.store.clock(), total);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn repeated_mid_stream_checkpoints_keep_the_wal_and_image_coherent() {
    // Several commit/checkpoint cycles while the storm runs: each cycle
    // compacts the prefix and narrows the replay tail, and recovery after
    // any number of cycles still lands on the exact final image.
    let dir = tmp_dir("repeated");
    let mgr =
        DurabilityManager::open(DurabilityOptions::new(&dir).with_sync(SyncPolicy::Never)).unwrap();
    let store = store_with_families();
    let _h = mgr.attach(&store);
    let total = (THREADS * PUTS_PER_THREAD) as u64;
    let done = AtomicBool::new(false);

    // The scope returns the checkpointer's wave count once every writer
    // has joined — only then is the op buffer guaranteed complete.
    let waves = std::thread::scope(|scope| {
        spawn_writers(scope, &store);

        let checkpointer = {
            let store = store.clone();
            let mgr = &mgr;
            let done = &done;
            scope.spawn(move || {
                let mut wave = 0u64;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    wave += 1;
                    mgr.commit_wave(wave, store.clock()).unwrap();
                    if wave.is_multiple_of(2) {
                        mgr.checkpoint(wave, &store, wave.to_le_bytes().to_vec())
                            .unwrap();
                    }
                    if finished {
                        return wave;
                    }
                    std::thread::yield_now();
                }
            })
        };

        while store.clock() < total {
            std::thread::yield_now();
        }
        done.store(true, Ordering::Release);
        checkpointer.join().unwrap()
    });
    assert!(waves >= 1);

    // One final commit so the tail of the storm is on disk.
    mgr.commit_wave(waves + 1, store.clock()).unwrap();

    let r = recover_store(&dir).unwrap();
    assert_eq!(r.last_wave, waves + 1);
    assert!(!r.torn_tail);
    assert_eq!(r.store.export_state(), store.export_state());

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovered_store_round_trips_through_from_state() {
    // The image recovered from a WAL written by concurrent writers rebuilds
    // into a store that exports it unchanged.
    let dir = tmp_dir("round-trip");
    let mgr =
        DurabilityManager::open(DurabilityOptions::new(&dir).with_sync(SyncPolicy::Never)).unwrap();
    let store = store_with_families();
    let _h = mgr.attach(&store);

    std::thread::scope(|scope| {
        spawn_writers(scope, &store);
    });
    mgr.commit_wave(1, store.clock()).unwrap();

    let recovered = recover_store(&dir).unwrap().store;
    let baseline = recovered.export_state();
    assert_eq!(baseline, store.export_state());

    let rebuilt = DataStore::from_state(baseline.clone()).unwrap();
    assert_eq!(rebuilt.export_state(), baseline);

    std::fs::remove_dir_all(&dir).unwrap();
}
