//! Checkpoints under concurrent writers on one store.
//!
//! A checkpoint is a consistent cut (`export_state` quiesces writers), so
//! one taken *mid-stream*, while writer threads are still hammering the
//! store, holds for every thread exactly the effects of a prefix of its
//! puts — never a later put without an earlier one — and its clock counts
//! exactly those puts.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

use smartflux_datastore::{DataStore, StoreState, Value};
use smartflux_durability::{read_checkpoint, Checkpointer, DurabilityOptions};

const THREADS: usize = 4;
const PUTS_PER_THREAD: usize = 1_500;
/// Each thread's puts cycle through this many cells.
const CELLS: usize = 32;
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

/// The cell (family, row, qualifier) that thread `t`'s put `i` writes;
/// the value it writes is `t · PUTS_PER_THREAD + i`.
fn cell(t: usize, i: usize) -> (&'static str, String, String) {
    (
        FAMILIES[i % FAMILIES.len()],
        format!("r{}", i % CELLS),
        format!("q{t}"),
    )
}

/// Spawns the writer storm; each thread writes a disjoint qualifier so the
/// final image is deterministic regardless of interleaving.
fn spawn_writers<'scope, 'env>(scope: &'scope std::thread::Scope<'scope, 'env>, store: &DataStore) {
    for t in 0..THREADS {
        let store = store.clone();
        scope.spawn(move || {
            for i in 0..PUTS_PER_THREAD {
                let (family, row, qual) = cell(t, i);
                let v = (t * PUTS_PER_THREAD + i) as i64;
                store
                    .put(TABLE, family, &row, &qual, Value::I64(v))
                    .unwrap();
            }
        });
    }
}

/// Checks that `image` holds, for every thread `t`, exactly the effects of
/// its first `k_t` puts and nothing else, and that its clock advanced by
/// one tick per held put since `base`. Returns every `k_t`.
fn prefix_lengths(image: &StoreState, base: u64) -> Vec<usize> {
    let store = DataStore::from_state(image.clone()).unwrap();
    let prefixes: Vec<usize> = (0..THREADS)
        .map(|t| {
            let value = |c: usize| {
                let (family, row, qual) = cell(t, c);
                store.get(TABLE, family, &row, &qual).unwrap()
            };
            // The newest put the image holds is the prefix's last one.
            let k = (0..CELLS)
                .filter_map(|c| match value(c) {
                    Some(Value::I64(v)) => Some(v as usize - t * PUTS_PER_THREAD + 1),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            for c in 0..CELLS {
                // Cell `c` holds the last of the first `k` puts to write it.
                let last = (c < k).then(|| c + (k - 1 - c) / CELLS * CELLS);
                let expected = last.map(|i| Value::I64((t * PUTS_PER_THREAD + i) as i64));
                assert_eq!(value(c), expected, "thread {t}, cell {c}, prefix {k}");
            }
            k
        })
        .collect();
    let cells: usize = image
        .tables
        .iter()
        .flat_map(|table| &table.families)
        .map(|family| family.cells.len())
        .sum();
    assert_eq!(
        cells,
        prefixes.iter().map(|&k| k.min(CELLS)).sum::<usize>(),
        "cells beside the prefixes"
    );
    assert_eq!(
        prefixes.iter().sum::<usize>() as u64,
        image.clock - base,
        "one clock tick per put"
    );
    prefixes
}

#[test]
fn mid_stream_checkpoint_under_concurrent_writers_is_a_consistent_cut() {
    let dir = tmp_dir("mid-stream");
    let checkpointer = Checkpointer::open(DurabilityOptions::new(&dir)).unwrap();
    let store = store_with_families();
    let base = store.clock();
    let total = (THREADS * PUTS_PER_THREAD) as u64;

    std::thread::scope(|scope| {
        spawn_writers(scope, &store);
        // Mid-stream, with writers still running.
        while store.clock() < base + total / 4 {
            std::thread::yield_now();
        }
        checkpointer
            .checkpoint(1, &store, b"engine-state".to_vec())
            .unwrap();
    });

    let ckpt = read_checkpoint(&dir).unwrap().expect("checkpoint written");
    assert_eq!((ckpt.wave, ckpt.clock), (1, ckpt.store.clock));
    assert_eq!(ckpt.engine, b"engine-state");
    prefix_lengths(&ckpt.store, base);
    // The finished storm is every thread's whole prefix.
    assert_eq!(
        prefix_lengths(&store.export_state(), base),
        [PUTS_PER_THREAD; THREADS]
    );
    // The image rebuilds into a store that exports it unchanged.
    let rebuilt = DataStore::from_state(ckpt.store.clone()).unwrap();
    assert_eq!(rebuilt.export_state(), ckpt.store);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn repeated_mid_stream_checkpoints_only_move_forward() {
    // Checkpoints back to back while the storm runs: each is a consistent
    // cut, and neither a thread's prefix nor the clock ever shrinks from
    // one to the next.
    let dir = tmp_dir("repeated");
    let checkpointer = Checkpointer::open(DurabilityOptions::new(&dir)).unwrap();
    let store = store_with_families();
    let base = store.clock();
    let total = (THREADS * PUTS_PER_THREAD) as u64;
    let done = AtomicBool::new(false);

    let cuts = std::thread::scope(|scope| {
        spawn_writers(scope, &store);
        let taker = scope.spawn(|| {
            let mut cuts = Vec::new();
            let mut wave = 0u64;
            loop {
                let finished = done.load(Ordering::Acquire);
                wave += 1;
                checkpointer
                    .checkpoint(wave, &store, wave.to_le_bytes().to_vec())
                    .unwrap();
                let ckpt = read_checkpoint(&dir).unwrap().expect("checkpoint written");
                assert_eq!(
                    (ckpt.wave, ckpt.engine),
                    (wave, wave.to_le_bytes().to_vec())
                );
                cuts.push((ckpt.clock, prefix_lengths(&ckpt.store, base)));
                if finished {
                    return cuts;
                }
                std::thread::yield_now();
            }
        });
        while store.clock() < base + total {
            std::thread::yield_now();
        }
        done.store(true, Ordering::Release);
        taker.join().unwrap()
    });

    for pair in cuts.windows(2) {
        let ((clock, prefixes), (next_clock, next_prefixes)) = (&pair[0], &pair[1]);
        assert!(clock <= next_clock, "clock {clock} → {next_clock}");
        assert!(
            prefixes
                .iter()
                .zip(next_prefixes)
                .all(|(k, next)| k <= next),
            "prefixes {prefixes:?} → {next_prefixes:?}"
        );
    }
    // The last checkpoint began after the storm ended: it holds all of it.
    assert_eq!(cuts.last().unwrap().1, [PUTS_PER_THREAD; THREADS]);

    std::fs::remove_dir_all(&dir).unwrap();
}
