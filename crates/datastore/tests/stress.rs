//! Seeded multi-threaded stress tests for the store.
//!
//! The linearizability bar: N writer threads issue seeded random puts,
//! deletes, gets and scans concurrently; every mutation the store reports
//! through its observer bus is collected, then replayed single-threaded —
//! in store-timestamp order — onto a fresh store. Because the logical clock
//! only advances inside the store's write guard, timestamp order per cell
//! equals apply order, so the replayed oracle must land on the *identical*
//! final state: same cells, same values, same timestamps, same clock.

#![allow(deprecated)] // replays through `apply_put` / `apply_delete`, kept for the store-level WAL

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use smartflux_datastore::{ContainerRef, DataStore, ScanFilter, Value, WriteEvent, WriteKind};

/// Writer threads per stress run.
const THREADS: usize = 4;
/// Waves per thread; each wave issues [`OPS_PER_WAVE`] operations.
const WAVES: usize = 40;
/// Operations per wave per thread.
const OPS_PER_WAVE: usize = 25;

const TABLES: [&str; 2] = ["alpha", "beta"];
const FAMILIES: [&str; 4] = ["f0", "f1", "f2", "f3"];
const ROWS: [&str; 6] = ["r0", "r1", "r2", "r3", "r4", "r5"];
const QUALS: [&str; 3] = ["q0", "q1", "q2"];

/// Deterministic splitmix64 stream, one per thread.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[(self.next() % options.len() as u64) as usize]
    }
}

fn store_with_containers() -> DataStore {
    let store = DataStore::new();
    for table in TABLES {
        store.create_table(table).unwrap();
        for family in FAMILIES {
            store.create_family(table, family).unwrap();
        }
    }
    store
}

/// Runs the seeded workload on `store` from `THREADS` concurrent threads,
/// each operation on a container drawn from `tables` × `families`.
///
/// Returns the total number of mutation *attempts* issued (puts plus
/// deletes, including no-op deletes of absent cells — which do not tick
/// the clock).
fn hammer(store: &DataStore, seed: u64, tables: &[&str], families: &[&str]) -> u64 {
    let mutations = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = store.clone();
            let mutations = &mutations;
            scope.spawn(move || {
                let mut rng = Rng(seed
                    .wrapping_add(t as u64)
                    .wrapping_mul(0x1234_5678_9ABC_DEF1));
                let mut local = 0usize;
                for wave in 0..WAVES {
                    for _ in 0..OPS_PER_WAVE {
                        let table = rng.pick(tables);
                        let family = rng.pick(families);
                        let row = rng.pick(&ROWS);
                        let qual = rng.pick(&QUALS);
                        match rng.next() % 10 {
                            // 60% puts with a thread/wave-unique value.
                            0..=5 => {
                                let v = (t * 1_000_000 + wave * 1_000 + local) as i64;
                                store.put(table, family, row, qual, Value::I64(v)).unwrap();
                                local += 1;
                                mutations.fetch_add(1, Ordering::Relaxed);
                            }
                            // 20% deletes (no-op absent-cell deletes are
                            // clock-neutral).
                            6..=7 => {
                                store.delete(table, family, row, qual).unwrap();
                                mutations.fetch_add(1, Ordering::Relaxed);
                            }
                            // 10% point reads, 10% scans — concurrent read
                            // traffic against the containers under mutation.
                            8 => {
                                store.get(table, family, row, qual).unwrap();
                            }
                            _ => {
                                store
                                    .scan(table, family, &ScanFilter::all().with_limit(4))
                                    .unwrap();
                            }
                        }
                    }
                }
            });
        }
    });
    mutations.load(Ordering::Relaxed) as u64
}

/// Collects every observed mutation, replays it on a fresh store in
/// timestamp order, and asserts the oracle matches the concurrent store.
fn assert_replay_matches(seed: u64, tables: &[&str], families: &[&str]) {
    let store = store_with_containers();
    let log: Arc<Mutex<Vec<WriteEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&log);
    store.register_observer(Arc::new(move |event: &WriteEvent| {
        sink.lock().push(event.clone());
    }));

    let mutations = hammer(&store, seed, tables, families);

    // Every clock tick is accounted for: one per *applied* mutation, which
    // is exactly one per observable event. No-op deletes of absent cells
    // neither tick nor notify, so the clock may trail the attempt count.
    let events_observed = log.lock().len() as u64;
    assert_eq!(store.clock(), events_observed);
    assert!(store.clock() <= mutations);

    // Replay on one thread in timestamp order. Timestamps are
    // assigned under the store's write guard, so per-cell order in the
    // sorted log equals the order the concurrent store applied them.
    let mut events = Arc::try_unwrap(log)
        .map(Mutex::into_inner)
        .unwrap_or_else(|arc| arc.lock().clone());
    events.sort_by_key(|e| e.timestamp);
    let timestamps: Vec<u64> = events.iter().map(|e| e.timestamp).collect();
    let mut dedup = timestamps.clone();
    dedup.dedup();
    assert_eq!(timestamps, dedup, "store timestamps must be unique");

    let oracle = store_with_containers();
    for event in &events {
        match event.kind {
            WriteKind::Put => oracle
                .apply_put(
                    &event.table,
                    &event.family,
                    &event.row,
                    &event.qualifier,
                    event.new.clone().unwrap(),
                    event.timestamp,
                )
                .unwrap(),
            WriteKind::Delete => oracle
                .apply_delete(&event.table, &event.family, &event.row, &event.qualifier)
                .unwrap(),
        }
    }
    // The replay path (`apply_put`/`apply_delete`) is deliberately
    // clock-neutral, so the oracle's clock is restored from the
    // concurrent run before comparing exported state.
    oracle.set_clock(store.clock());

    // Identical final state: contents, timestamps,
    // clock — and per-container cell counts.
    assert_eq!(oracle.export_state(), store.export_state());
    for table in TABLES {
        for family in FAMILIES {
            let container = ContainerRef::family(table, family);
            assert_eq!(
                oracle.cell_count(&container).unwrap(),
                store.cell_count(&container).unwrap(),
                "cell count of {table}/{family}"
            );
        }
    }
}

#[test]
fn concurrent_run_replays_on_a_fresh_store() {
    // Every thread spread over every container.
    assert_replay_matches(0xDEAD_BEEF, &TABLES, &FAMILIES);
}

#[test]
fn concurrent_run_on_one_container_replays_on_a_fresh_store() {
    // Every thread hammering one container puts all traffic on the same
    // rows of one family — the hostile case for clock/apply-order
    // agreement.
    assert_replay_matches(0xC0FF_EE00, &TABLES[..1], &FAMILIES[..1]);
}

#[test]
fn single_threaded_runs_are_bit_for_bit_deterministic() {
    // With one thread the whole run is deterministic: two stores driven by
    // the same seed export identical state.
    let run = || {
        let store = store_with_containers();
        let mut rng = Rng(42);
        for _ in 0..500 {
            let table = rng.pick(&TABLES);
            let family = rng.pick(&FAMILIES);
            let row = rng.pick(&ROWS);
            let qual = rng.pick(&QUALS);
            if rng.next().is_multiple_of(4) {
                store.delete(table, family, row, qual).unwrap();
            } else {
                let v = rng.next() as i64;
                store.put(table, family, row, qual, Value::I64(v)).unwrap();
            }
        }
        store.export_state()
    };
    assert_eq!(run(), run(), "same seed, same state");
}
