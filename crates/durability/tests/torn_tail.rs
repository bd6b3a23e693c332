//! WAL torn-tail fuzzing: truncate the log at every byte offset of the
//! final record and assert recovery is clean, and that a manager reopened
//! on the torn log appends where recovery can read it; plus corrupt-input
//! checks proving recovery returns typed errors instead of panicking, and
//! a log written by concurrent writers replaying to their store's image.

#![allow(deprecated)] // exercises the store-level WAL kept for benchmark/

use std::path::PathBuf;

use smartflux_datastore::{DataStore, Value};
use smartflux_durability::{
    recover_store, Checkpointer, DurabilityError, DurabilityManager, DurabilityOptions, SyncPolicy,
    WAL_FILE,
};

fn tmp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("smartflux-torn-tail-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn store_with_tf() -> DataStore {
    let s = DataStore::new();
    s.create_table("t").unwrap();
    s.create_family("t", "f").unwrap();
    s
}

fn options(dir: &PathBuf) -> DurabilityOptions {
    DurabilityOptions::new(dir).with_sync(SyncPolicy::Never)
}

/// Writes `waves` committed waves through the manager, returning the byte
/// offset where the final record starts.
fn build_log(dir: &PathBuf, waves: u64) -> u64 {
    let mgr = DurabilityManager::open(options(dir)).unwrap();
    let store = store_with_tf();
    let _h = mgr.attach(&store);
    let mut last_record_start = 0;
    for wave in 1..=waves {
        store
            .put("t", "f", "r", "q", Value::from(wave as f64))
            .unwrap();
        store
            .put("t", "f", &format!("r{wave}"), "extra", Value::from("txt"))
            .unwrap();
        if wave == waves {
            store.delete("t", "f", "r1", "extra").unwrap();
        }
        last_record_start = mgr.wal_len().unwrap();
        mgr.commit_wave(wave, store.clock()).unwrap();
    }
    last_record_start
}

#[test]
fn truncation_at_every_offset_of_the_final_record_recovers_cleanly() {
    let dir = tmp_dir("every-offset");
    let waves = 4;
    let last_record_start = build_log(&dir, waves);
    let wal_path = dir.join(WAL_FILE);
    let full = std::fs::read(&wal_path).unwrap();
    assert!(last_record_start > 0 && (last_record_start as usize) < full.len());

    for cut in last_record_start as usize..full.len() {
        std::fs::write(&wal_path, &full[..cut]).unwrap();
        let recovered =
            recover_store(&dir).unwrap_or_else(|e| panic!("cut at {cut}: recovery failed: {e}"));
        // Only complete commits survive: the store converges to the state
        // as of the second-to-last wave, whatever the truncation offset.
        assert_eq!(recovered.last_wave, waves - 1, "cut at {cut}");
        assert_eq!(
            recovered.torn_tail,
            cut != last_record_start as usize,
            "cut at {cut}"
        );
        assert_eq!(
            recovered.store.get("t", "f", "r", "q").unwrap(),
            Some(Value::from((waves - 1) as f64)),
            "cut at {cut}"
        );
        // The final wave's delete never happened as far as recovery is
        // concerned.
        assert_eq!(
            recovered.store.get("t", "f", "r1", "extra").unwrap(),
            Some(Value::from("txt")),
            "cut at {cut}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_manager_reopened_on_a_torn_log_appends_where_recovery_reads() {
    // A crash tore wave 3's record; the process recovers, reopens the
    // manager and commits waves 3 and 4 again. Appended behind the torn
    // bytes, those would read as a CRC mismatch (or, behind a long torn
    // record, as a torn tail that swallows them): `open` cuts the tail off.
    let dir = tmp_dir("reopen");
    let last_record_start = build_log(&dir, 3);
    let wal_path = dir.join(WAL_FILE);
    let full = std::fs::read(&wal_path).unwrap();

    for cut in last_record_start as usize..full.len() {
        std::fs::write(&wal_path, &full[..cut]).unwrap();
        let store = recover_store(&dir).unwrap().store;
        let mgr = DurabilityManager::open(options(&dir)).unwrap();
        let reopened_len = mgr.wal_len().unwrap();
        let _h = mgr.attach(&store);
        for wave in 3..=4u64 {
            store
                .put("t", "f", "r", "q", Value::from(wave as f64))
                .unwrap();
            mgr.commit_wave(wave, store.clock()).unwrap();
        }
        let recovered =
            recover_store(&dir).unwrap_or_else(|e| panic!("cut at {cut}: recovery failed: {e}"));
        assert_eq!(recovered.last_wave, 4, "cut at {cut}");
        assert!(!recovered.torn_tail, "cut at {cut}");
        assert_eq!(
            recovered.store.export_state(),
            store.export_state(),
            "cut at {cut}"
        );
        assert_eq!(reopened_len, last_record_start, "cut at {cut}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncating_the_whole_log_yields_the_empty_store() {
    let dir = tmp_dir("whole-log");
    build_log(&dir, 2);
    let wal_path = dir.join(WAL_FILE);
    std::fs::write(&wal_path, []).unwrap();
    let recovered = recover_store(&dir).unwrap();
    assert_eq!(recovered.last_wave, 0);
    assert!(!recovered.torn_tail);
    assert!(recovered.store.table_names().is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mid_log_corruption_is_a_typed_error_not_a_panic() {
    let dir = tmp_dir("mid-corrupt");
    build_log(&dir, 4);
    let wal_path = dir.join(WAL_FILE);
    let full = std::fs::read(&wal_path).unwrap();

    // Flip one byte in every position of the first half of the log. Every
    // outcome must be a clean result or a typed Corrupt error — never a
    // panic. (Flips in a later record can still recover the prefix.)
    for idx in 0..full.len() / 2 {
        let mut damaged = full.clone();
        damaged[idx] ^= 0x5A;
        std::fs::write(&wal_path, &damaged).unwrap();
        match recover_store(&dir) {
            Ok(_) | Err(DurabilityError::Corrupt { .. }) => {}
            Err(other) => panic!("flip at {idx}: unexpected error kind: {other}"),
        }
    }

    // A deterministic corruption: damage the first record's payload.
    let mut damaged = full.clone();
    damaged[10] ^= 0xFF;
    std::fs::write(&wal_path, &damaged).unwrap();
    assert!(matches!(
        recover_store(&dir),
        Err(DurabilityError::Corrupt { .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_survives_torn_tail_after_a_checkpoint() {
    let dir = tmp_dir("ckpt-torn");
    let mgr = DurabilityManager::open(options(&dir)).unwrap();
    let checkpointer = Checkpointer::open(options(&dir)).unwrap();
    let store = store_with_tf();
    let _h = mgr.attach(&store);
    let mut last_record_start = 0;
    for wave in 1..=3u64 {
        store
            .put("t", "f", "r", "q", Value::from(wave as f64))
            .unwrap();
        last_record_start = mgr.wal_len().unwrap();
        mgr.commit_wave(wave, store.clock()).unwrap();
        if wave == 2 {
            checkpointer.checkpoint(wave, &store, Vec::new()).unwrap();
        }
    }

    let wal_path = dir.join(WAL_FILE);
    let full = std::fs::read(&wal_path).unwrap();
    for cut in last_record_start as usize + 1..full.len() {
        std::fs::write(&wal_path, &full[..cut]).unwrap();
        let recovered = recover_store(&dir).unwrap();
        assert_eq!(recovered.checkpoint_wave, 2, "cut at {cut}");
        assert_eq!(recovered.last_wave, 2, "cut at {cut}");
        assert!(recovered.torn_tail, "cut at {cut}");
        assert_eq!(
            recovered.store.get("t", "f", "r", "q").unwrap(),
            Some(Value::from(2.0)),
            "cut at {cut}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovered_store_round_trips_through_from_state() {
    // Four writer threads can reach the capture buffer out of timestamp order;
    // `commit_wave` re-sorts the batch, so the log replays to the image the
    // store holds, which rebuilds into a store that exports it unchanged.
    const FAMILIES: [&str; 4] = ["f0", "f1", "f2", "f3"];
    const PUTS_PER_THREAD: usize = 1_500;
    let dir = tmp_dir("round-trip");
    let mgr = DurabilityManager::open(options(&dir)).unwrap();
    let store = DataStore::new();
    store.create_table("t").unwrap();
    for family in FAMILIES {
        store.create_family("t", family).unwrap();
    }
    let _h = mgr.attach(&store);

    std::thread::scope(|scope| {
        for t in 0..4 {
            let store = &store;
            scope.spawn(move || {
                for i in 0..PUTS_PER_THREAD {
                    let family = FAMILIES[i % FAMILIES.len()];
                    let v = (t * PUTS_PER_THREAD + i) as i64;
                    store
                        .put(
                            "t",
                            family,
                            &format!("r{}", i % 32),
                            &format!("q{t}"),
                            Value::I64(v),
                        )
                        .unwrap();
                }
            });
        }
    });
    mgr.commit_wave(1, store.clock()).unwrap();

    let recovered = recover_store(&dir).unwrap().store;
    let baseline = recovered.export_state();
    assert_eq!(baseline, store.export_state());

    let rebuilt = DataStore::from_state(baseline.clone()).unwrap();
    assert_eq!(rebuilt.export_state(), baseline);

    std::fs::remove_dir_all(&dir).unwrap();
}
