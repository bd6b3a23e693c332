//! Snapshot and state-export consistency under concurrent writers.
//!
//! `DataStore::export_state` holds the store's read guard for the whole
//! copy, so the exported state is a clock-consistent cut: no version from
//! the future of its clock, no torn view across families. Per-family
//! `snapshot()` holds the same guard for the whole capture, so it is atomic
//! within the family. These tests drive writers that maintain cross-cell
//! invariants and assert every capture observes the invariants intact.

use std::sync::atomic::{AtomicBool, Ordering};

use smartflux_datastore::{ContainerRef, DataStore, Value};

const TABLE: &str = "inv";
/// Family pairs; each writer bumps `pair.0` then `pair.1`, so any atomic
/// cut must observe `value(pair.1) <= value(pair.0)`.
const PAIRS: [(&str, &str); 4] = [("a0", "a1"), ("b0", "b1"), ("c0", "c1"), ("d0", "d1")];
const WRITES_PER_PAIR: i64 = 2_000;

fn store_with_pairs() -> DataStore {
    let store = DataStore::new();
    store.create_table(TABLE).unwrap();
    for (first, second) in PAIRS {
        store.create_family(TABLE, first).unwrap();
        store.create_family(TABLE, second).unwrap();
    }
    store
}

fn pair_value(state_value: Option<&Value>) -> i64 {
    match state_value {
        Some(Value::I64(v)) => *v,
        None => -1,
        other => panic!("unexpected value {other:?}"),
    }
}

/// Looks up `table/family/r/q`'s latest version in an exported state.
fn exported(state: &smartflux_datastore::StoreState, family: &str) -> i64 {
    let table = state
        .tables
        .iter()
        .find(|t| t.name == TABLE)
        .expect("table exported");
    let fam = table
        .families
        .iter()
        .find(|f| f.name == family)
        .expect("family exported");
    fam.cells
        .iter()
        .find(|c| c.row == "r" && c.qualifier == "q")
        .and_then(|c| c.versions.last())
        .map_or(-1, |(_, v)| pair_value(Some(v)))
}

#[test]
fn export_state_is_a_clock_consistent_cut_under_concurrent_writers() {
    let store = store_with_pairs();
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // One writer per pair: bump first, then second. At any atomic cut
        // `second <= first <= second + 1`.
        for (first, second) in PAIRS {
            let store = store.clone();
            scope.spawn(move || {
                for i in 0..WRITES_PER_PAIR {
                    store.put(TABLE, first, "r", "q", Value::I64(i)).unwrap();
                    store.put(TABLE, second, "r", "q", Value::I64(i)).unwrap();
                }
            });
        }

        // Reader: repeatedly export and check the cut invariants until the
        // writers finish, then once more against the final state.
        let reader_store = store.clone();
        let done = &done;
        let reader = scope.spawn(move || {
            let store = reader_store;
            let mut last_clock = 0;
            let mut exports = 0u32;
            loop {
                let finished = done.load(Ordering::Acquire);
                let state = store.export_state();

                // Clock never runs backwards across successive cuts.
                assert!(state.clock >= last_clock, "clock went backwards");
                last_clock = state.clock;

                // No version is newer than the cut's clock.
                for table in &state.tables {
                    for family in &table.families {
                        for cell in &family.cells {
                            for (ts, _) in &cell.versions {
                                assert!(
                                    *ts <= state.clock,
                                    "version ts {ts} exceeds cut clock {}",
                                    state.clock
                                );
                            }
                        }
                    }
                }

                // Pair invariant: writes land first-then-second, so a torn
                // cross-family view would show `second > first`.
                for (first, second) in PAIRS {
                    let a = exported(&state, first);
                    let b = exported(&state, second);
                    assert!(b <= a && a <= b + 1, "torn cut: {first}={a}, {second}={b}");
                }

                exports += 1;
                if finished {
                    break;
                }
            }
            exports
        });

        // Writers are done exactly when the clock reaches the total put
        // count; then release the reader and collect its capture count.
        let total = PAIRS.len() as u64 * 2 * WRITES_PER_PAIR as u64;
        while store.clock() < total {
            std::thread::yield_now();
        }
        done.store(true, Ordering::Release);
        let exports = reader.join().unwrap();
        assert!(exports > 0, "reader never captured a cut");
    });

    // Final state: every pair converged to its terminal value.
    let state = store.export_state();
    for (first, second) in PAIRS {
        assert_eq!(exported(&state, first), WRITES_PER_PAIR - 1);
        assert_eq!(exported(&state, second), WRITES_PER_PAIR - 1);
    }
    assert_eq!(state.clock, PAIRS.len() as u64 * 2 * WRITES_PER_PAIR as u64);
}

#[test]
fn family_snapshot_is_atomic_within_the_family() {
    // Both cells live in the same family, and `snapshot` holds the read
    // guard across the whole capture — so the first-then-second write
    // order can never appear inverted.
    let store = store_with_pairs();
    let container = ContainerRef::family(TABLE, "a0");

    std::thread::scope(|scope| {
        let writer = {
            let store = store.clone();
            scope.spawn(move || {
                for i in 0..WRITES_PER_PAIR {
                    store.put(TABLE, "a0", "x", "q", Value::I64(i)).unwrap();
                    store.put(TABLE, "a0", "y", "q", Value::I64(i)).unwrap();
                }
            })
        };

        let store = store.clone();
        let reader = scope.spawn(move || {
            let mut captures = 0u32;
            loop {
                let finished = store.clock() >= 2 * WRITES_PER_PAIR as u64;
                let snap = store.snapshot(&container).unwrap();
                let x = pair_value(snap.get("x", "q"));
                let y = pair_value(snap.get("y", "q"));
                assert!(y <= x && x <= y + 1, "torn snapshot: x={x}, y={y}");
                captures += 1;
                if finished {
                    break;
                }
            }
            captures
        });

        writer.join().unwrap();
        assert!(reader.join().unwrap() > 0);
    });
}

#[test]
fn export_under_writers_round_trips_through_from_state() {
    // A cut taken mid-stream must be a valid store image: rebuilding from
    // it and re-exporting yields the identical state (this is exactly the
    // path a durability checkpoint takes).
    let store = store_with_pairs();

    std::thread::scope(|scope| {
        for (first, second) in PAIRS {
            let store = store.clone();
            scope.spawn(move || {
                for i in 0..500 {
                    store.put(TABLE, first, "r", "q", Value::I64(i)).unwrap();
                    store.put(TABLE, second, "r", "q", Value::I64(i)).unwrap();
                }
            });
        }

        let store = store.clone();
        scope.spawn(move || {
            for _ in 0..25 {
                let cut = store.export_state();
                let rebuilt = DataStore::from_state(cut.clone()).unwrap();
                assert_eq!(rebuilt.export_state(), cut);
                assert_eq!(rebuilt.clock(), cut.clock);
            }
        });
    });
}
