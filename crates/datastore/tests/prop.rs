//! Property-based tests for the datastore invariants.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use smartflux_datastore::{
    ContainerRef, DataStore, ScanFilter, Value, WriteEvent, WriteKind, WriteObserver, WriteRef,
};

/// An arbitrary sequence of puts into a single family.
fn ops() -> impl Strategy<Value = Vec<(u8, u8, f64)>> {
    prop::collection::vec((0u8..6, 0u8..4, -1e6f64..1e6), 1..60)
}

/// One mutation attempt against `t/f` (or, with `missing_family`, against a
/// family that does not exist): a put of `value`, or a delete.
#[derive(Debug, Clone)]
struct Op {
    row: u8,
    qualifier: u8,
    put: Option<Value>,
    missing_family: bool,
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1e6f64..1e6).prop_map(Value::from),
        (-50i64..50).prop_map(Value::I64),
        ".{0,6}".prop_map(Value::from),
    ]
}

/// Puts, overwrites, deletes of present and absent cells (few slots, so all
/// three happen), and writes to a missing family.
fn mutations() -> impl Strategy<Value = Vec<Op>> {
    let op = (0u8..4, 0u8..3, prop::option::of(value()), 0u8..10).prop_map(
        |(row, qualifier, put, miss)| Op {
            row,
            qualifier,
            put,
            missing_family: miss == 0,
        },
    );
    prop::collection::vec(op, 1..80)
}

/// A borrowed observer: keeps what it saw by copying each view itself.
#[derive(Default)]
struct BorrowedLog(Mutex<Vec<WriteEvent>>);

impl WriteObserver for BorrowedLog {
    fn on_write(&self, event: &WriteRef<'_>) {
        self.0.lock().unwrap().push(event.to_owned());
    }
}

fn store() -> DataStore {
    let s = DataStore::new();
    s.ensure_container(&ContainerRef::family("t", "f"))
        .expect("fresh store");
    s
}

proptest! {
    /// The store returns exactly the last value written per slot.
    #[test]
    fn last_write_wins(ops in ops()) {
        let s = store();
        let mut model = std::collections::HashMap::new();
        for (row, qual, v) in &ops {
            let row_key = format!("r{row}");
            let qual_key = format!("q{qual}");
            s.put("t", "f", &row_key, &qual_key, Value::from(*v)).unwrap();
            model.insert((row_key, qual_key), *v);
        }
        for ((row, qual), expected) in &model {
            let got = s.get("t", "f", row, qual).unwrap().unwrap();
            prop_assert_eq!(got.as_f64(), Some(*expected));
        }
    }

    /// Snapshot contents equal the set of current values.
    #[test]
    fn snapshot_matches_gets(ops in ops()) {
        let s = store();
        for (row, qual, v) in &ops {
            s.put("t", "f", &format!("r{row}"), &format!("q{qual}"), Value::from(*v)).unwrap();
        }
        let snap = s.snapshot(&ContainerRef::family("t", "f")).unwrap();
        prop_assert_eq!(snap.len(), s.cell_count(&ContainerRef::family("t", "f")).unwrap());
        for ((row, qual), v) in snap.iter() {
            let got = s.get("t", "f", row, qual).unwrap().unwrap();
            prop_assert_eq!(&got, v);
        }
    }

    /// A snapshot diffed against itself is empty; against the empty
    /// snapshot it reports every slot as modified.
    #[test]
    fn diff_identity_and_totality(ops in ops()) {
        let s = store();
        for (row, qual, v) in &ops {
            // Avoid zero values: inserting 0.0 diffs to magnitude 0 against
            // the empty snapshot, which is fine but weakens the assertion.
            let v = if *v == 0.0 { 1.0 } else { *v };
            s.put("t", "f", &format!("r{row}"), &format!("q{qual}"), Value::from(v)).unwrap();
        }
        let snap = s.snapshot(&ContainerRef::family("t", "f")).unwrap();
        prop_assert!(snap.diff(&snap.clone()).is_empty());
        let from_empty = snap.diff(&smartflux_datastore::Snapshot::new());
        prop_assert_eq!(from_empty.modified_count(), snap.len());
    }

    /// Versioned cells keep the previous value consistent with history.
    #[test]
    fn previous_version_tracks_writes(values in prop::collection::vec(-1e6f64..1e6, 2..20)) {
        let s = store();
        for v in &values {
            s.put("t", "f", "r", "q", Value::from(*v)).unwrap();
        }
        let cell = s.get_versioned("t", "f", "r", "q").unwrap().unwrap();
        prop_assert_eq!(cell.current().as_f64(), Some(values[values.len() - 1]));
        prop_assert_eq!(
            cell.previous().and_then(Value::as_f64),
            Some(values[values.len() - 2])
        );
    }

    /// Scans respect row-prefix filtering and never invent rows.
    #[test]
    fn scan_prefix_soundness(ops in ops()) {
        let s = store();
        for (row, qual, v) in &ops {
            s.put("t", "f", &format!("r{row}"), &format!("q{qual}"), Value::from(*v)).unwrap();
        }
        let all = s.scan("t", "f", &ScanFilter::all()).unwrap();
        let filtered = s.scan("t", "f", &ScanFilter::all().with_row_prefix("r1")).unwrap();
        prop_assert!(filtered.len() <= all.len());
        for row in &filtered {
            prop_assert!(row.key.starts_with("r1"));
        }
        let filtered_keys: Vec<&String> = filtered.iter().map(|r| &r.key).collect();
        for row in &all {
            if row.key.starts_with("r1") {
                prop_assert!(filtered_keys.contains(&&row.key));
            }
        }
    }

    /// Differential oracle for the notification path: on one store, a
    /// borrowed observer's `to_owned()` stream equals what an owned closure
    /// observer recorded, element for element, and both equal what the
    /// store's contract prescribes — one event per applied mutation, each
    /// with the next clock tick, `old`/`new` as stored; rejected writes and
    /// deletes of absent cells produce nothing.
    #[test]
    fn borrowed_and_owned_observers_see_the_prescribed_stream(ops in mutations()) {
        let s = store();
        let borrowed = Arc::new(BorrowedLog::default());
        s.register_observer(Arc::clone(&borrowed) as Arc<dyn WriteObserver>);
        let owned: Arc<Mutex<Vec<WriteEvent>>> = Arc::default();
        let sink = Arc::clone(&owned);
        s.register_observer(Arc::new(move |e: &WriteEvent| sink.lock().unwrap().push(e.clone())));

        let mut model: HashMap<(String, String), Value> = HashMap::new();
        let mut prescribed = Vec::new();
        for op in &ops {
            let (row, qualifier) = (format!("r{}", op.row), format!("q{}", op.qualifier));
            if op.missing_family {
                let rejected = match &op.put {
                    Some(v) => s.put("t", "nope", &row, &qualifier, v.clone()).is_err(),
                    None => s.delete("t", "nope", &row, &qualifier).is_err(),
                };
                prop_assert!(rejected);
                continue;
            }
            let key = (row.clone(), qualifier.clone());
            let (kind, old) = match &op.put {
                Some(v) => {
                    let old = s.put("t", "f", &row, &qualifier, v.clone()).unwrap();
                    prop_assert_eq!(&old, &model.insert(key, v.clone()));
                    (WriteKind::Put, old)
                }
                None => {
                    let old = s.delete("t", "f", &row, &qualifier).unwrap();
                    prop_assert_eq!(&old, &model.remove(&key));
                    if old.is_none() {
                        continue; // absent cell: no mutation, no event
                    }
                    (WriteKind::Delete, old)
                }
            };
            prescribed.push(WriteEvent {
                table: "t".to_owned(),
                family: "f".to_owned(),
                row,
                qualifier,
                kind,
                old,
                new: op.put.clone(),
                timestamp: prescribed.len() as u64 + 1,
            });
        }
        prop_assert_eq!(s.clock(), prescribed.len() as u64);
        prop_assert_eq!(&*borrowed.0.lock().unwrap(), &prescribed);
        prop_assert_eq!(&*owned.lock().unwrap(), &prescribed);
    }

    /// Deleting every written slot leaves the container empty.
    #[test]
    fn delete_restores_empty(ops in ops()) {
        let s = store();
        let mut slots = std::collections::HashSet::new();
        for (row, qual, v) in &ops {
            let r = format!("r{row}");
            let q = format!("q{qual}");
            s.put("t", "f", &r, &q, Value::from(*v)).unwrap();
            slots.insert((r, q));
        }
        for (r, q) in &slots {
            prop_assert!(s.delete("t", "f", r, q).unwrap().is_some());
        }
        prop_assert_eq!(s.cell_count(&ContainerRef::family("t", "f")).unwrap(), 0);
    }
}

/// Concurrency: the store is `Send + Sync`; concurrent writers to distinct
/// rows must all land, and observers must see every event exactly once.
#[test]
fn concurrent_writers_are_fully_observed() {
    use std::sync::atomic::{AtomicU64, Ordering};

    let store = store();
    let events = Arc::new(AtomicU64::new(0));
    let e2 = Arc::clone(&events);
    store.register_observer(Arc::new(move |_: &WriteEvent| {
        e2.fetch_add(1, Ordering::SeqCst);
    }));

    const THREADS: usize = 8;
    const WRITES: usize = 250;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = store.clone();
            scope.spawn(move || {
                for i in 0..WRITES {
                    store
                        .put(
                            "t",
                            "f",
                            &format!("thread{t}-row{i}"),
                            "v",
                            Value::from((t * WRITES + i) as f64),
                        )
                        .expect("write succeeds");
                }
            });
        }
    });

    assert_eq!(events.load(Ordering::SeqCst), (THREADS * WRITES) as u64);
    assert_eq!(
        store
            .cell_count(&ContainerRef::family("t", "f"))
            .expect("family exists"),
        THREADS * WRITES
    );
}

/// Concurrency: concurrent writers to the *same* cell serialise cleanly —
/// the final value is one of the written values and the version history
/// remains bounded and ordered.
#[test]
fn concurrent_writes_to_one_cell_serialise() {
    let store = store();
    const THREADS: usize = 8;
    const WRITES: usize = 100;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = store.clone();
            scope.spawn(move || {
                for i in 0..WRITES {
                    store
                        .put("t", "f", "hot", "v", Value::from((t * WRITES + i) as f64))
                        .expect("write succeeds");
                }
            });
        }
    });
    let cell = store
        .get_versioned("t", "f", "hot", "v")
        .expect("family exists")
        .expect("cell exists");
    let current = cell.current().as_f64().expect("numeric");
    assert!((0.0..(THREADS * WRITES) as f64).contains(&current));
    // Timestamps in the retained history are strictly increasing.
    let versions = cell.versions();
    for pair in versions.windows(2) {
        assert!(pair[0].0 < pair[1].0, "timestamps must increase");
    }
}
