//! Property-based tests for the datastore invariants.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;

use smartflux_datastore::{
    ContainerRef, DataStore, FamilyHandle, ObserverHandle, OpKind, ScanFilter, StoreError,
    StoreState, Value, WriteEvent, WriteKind, WriteObserver, WriteRef,
};
use smartflux_durability::{decode_store_state, encode_store_state};

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

/// One step of the handle-versus-one-shot comparison.
#[derive(Debug, Clone)]
enum HandleOp {
    /// A put of `put`, or a delete, of a cell of family `FAMILIES[family]`;
    /// in the handle run, `one_shot` sends it string-addressed anyway.
    Write {
        family: usize,
        row: u8,
        qualifier: u8,
        put: Option<Value>,
        one_shot: bool,
    },
    /// Puts of zero to four cells, in order, over any rows — keys may
    /// repeat: one `put_many` in the handle run, that many `put`s otherwise.
    WriteMany {
        family: usize,
        cells: Vec<(u8, u8, Value)>,
    },
    /// Reads cell `(row, qualifier)` of `FAMILIES[family]` by `get`, by
    /// `get_f64` and from its row found once, then walks every row: one
    /// read scope in the handle run, one-shot `get`s and a `scan` otherwise.
    Read {
        family: usize,
        row: u8,
        qualifier: u8,
    },
    /// Registers the transient observer, or unregisters it if it is on.
    ToggleObserver,
    /// Creates `t/late` — after the handles to `t/f` and `t/g` were built.
    CreateLate,
}

/// `(table, family)` a [`HandleOp::Write`] can address: two families that
/// exist from the start, one created mid-sequence, one in a missing table.
const FAMILIES: [(&str, &str); 4] = [("t", "f"), ("t", "g"), ("t", "late"), ("nope", "f")];

fn handle_ops() -> impl Strategy<Value = Vec<HandleOp>> {
    // `f` and `g` take most writes, interleaved.
    const TARGETS: [usize; 12] = [0, 1, 0, 1, 0, 1, 0, 1, 0, 2, 2, 3];
    let op = (
        (0usize..16, any::<bool>()),
        0u8..3,
        0u8..3,
        prop::option::of(value()),
        prop::collection::vec((0u8..3, 0u8..3, value()), 0..5),
        0usize..FAMILIES.len(),
    )
        .prop_map(
            |((kind, flag), row, qualifier, put, cells, read)| match (kind, flag) {
                (0, _) => HandleOp::ToggleObserver,
                (1, _) => HandleOp::CreateLate,
                (14 | 15, _) => HandleOp::Read {
                    family: read,
                    row,
                    qualifier,
                },
                (2..=5, true) => HandleOp::WriteMany {
                    family: TARGETS[kind - 2],
                    cells,
                },
                _ => HandleOp::Write {
                    family: TARGETS[kind - 2],
                    row,
                    qualifier,
                    put,
                    one_shot: flag,
                },
            },
        );
    prop::collection::vec(op, 1..120)
}

/// Everything observable about a run of [`HandleOp`]s.
#[derive(Debug, PartialEq)]
struct HandleRun {
    /// What an observer registered before the first write — but after the
    /// handles were built — saw.
    permanent: Vec<WriteEvent>,
    /// What the observer toggled mid-sequence saw.
    transient: Vec<WriteEvent>,
    /// Results of the writes, in order, cell by cell; a cell of a batch
    /// displaces `None` (a batch hands back no displaced values).
    results: Vec<Result<Option<Value>, StoreError>>,
    /// What each [`HandleOp::Read`] saw.
    reads: Vec<Result<Read, StoreError>>,
    /// Get and scan operations op observers heard of, for reads that found
    /// their family (a refused one-shot is timed too; a scope that finds no
    /// family reads nothing).
    read_ops: [usize; 2],
    clock: u64,
    state: StoreState,
}

/// One [`HandleOp::Read`]: the cell by `get` and by `get_f64`, its row's
/// three cells, and every row with its cells in order.
#[derive(Debug, PartialEq)]
struct Read {
    value: Option<Value>,
    number: Option<f64>,
    row: [Option<Value>; 3],
    rows: Vec<(String, Vec<(String, Value)>)>,
}

/// The qualifiers a [`HandleOp`] addresses.
const QUALIFIERS: [&str; 3] = ["q0", "q1", "q2"];

/// [`HandleOp::Read`] through one read scope.
fn read_in_scope(
    s: &DataStore,
    family: usize,
    row: &str,
    qualifier: &str,
) -> Result<Read, StoreError> {
    let (table, name) = FAMILIES[family];
    s.read(|r| {
        let family = r.family(table, name)?;
        let cells = family.row(row);
        let rows = family.rows().map(|(key, row)| {
            let cells = row.iter().map(|(q, _, v)| (q.to_owned(), v.clone()));
            (key.to_owned(), cells.collect())
        });
        Ok(Read {
            value: family.get(row, qualifier).cloned(),
            number: family.get_f64(row, qualifier),
            row: QUALIFIERS.map(|q| cells.value(q).cloned()),
            rows: rows.collect(),
        })
    })
}

/// [`HandleOp::Read`] through string-addressed one-shots.
fn read_by_one_shots(
    s: &DataStore,
    family: usize,
    row: &str,
    qualifier: &str,
) -> Result<Read, StoreError> {
    let (table, name) = FAMILIES[family];
    let get = |q: &str| s.get(table, name, row, q);
    let value = get(qualifier)?;
    let number = get(qualifier)?.and_then(|v| v.as_f64());
    let row = [
        get(QUALIFIERS[0])?,
        get(QUALIFIERS[1])?,
        get(QUALIFIERS[2])?,
    ];
    let rows = s.scan(table, name, &ScanFilter::all())?;
    Ok(Read {
        value,
        number,
        row,
        rows: rows
            .into_iter()
            .map(|scan| (scan.key, scan.columns))
            .collect(),
    })
}

/// The handle to `FAMILIES[family]`, resolved the first time it is there to
/// resolve: a handle to a family that is not is the one-shot's typed error.
fn resolved<'h, 's>(
    s: &'s DataStore,
    handles: &'h mut [Option<FamilyHandle<'s>>; 3],
    family: usize,
) -> Result<&'h FamilyHandle<'s>, StoreError> {
    let (table, name) = FAMILIES[family];
    match handles.get_mut(family) {
        Some(Some(handle)) => Ok(handle),
        Some(unresolved) => s.family(table, name).map(|h| &*unresolved.insert(h)),
        None => s.family(table, name).map(|_| unreachable!("no such table")),
    }
}

/// Applies `ops` to a fresh store: through family handles and read scopes
/// (one-shots mixed in where an op says so) or, as the reference, through
/// string-addressed one-shots only.
#[allow(deprecated)] // op observers are kept for the end-to-end benchmark
fn run_handle_ops(ops: &[HandleOp], through_handles: bool) -> HandleRun {
    let s = store();
    s.create_family("t", "g").expect("fresh store");
    // Built before any observer exists and before `t/late` does.
    let mut handles: [Option<FamilyHandle<'_>>; 3] = [
        Some(s.family("t", "f").expect("family exists")),
        Some(s.family("t", "g").expect("family exists")),
        None,
    ];
    let permanent = Arc::new(BorrowedLog::default());
    s.register_observer(Arc::clone(&permanent) as Arc<dyn WriteObserver>);
    let transient = Arc::new(BorrowedLog::default());
    let mut transient_on: Option<ObserverHandle> = None;
    let read_ops = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
    let counter = Arc::clone(&read_ops);
    s.register_op_observer(Arc::new(move |op: OpKind, _: Duration| match op {
        OpKind::Get => _ = counter[0].fetch_add(1, Ordering::Relaxed),
        OpKind::Scan => _ = counter[1].fetch_add(1, Ordering::Relaxed),
        _ => {}
    }));
    let (mut results, mut reads) = (Vec::new(), Vec::new());
    for op in ops {
        match op {
            HandleOp::Read {
                family,
                row,
                qualifier,
            } => {
                let (row, qualifier) = (format!("r{row}"), format!("q{qualifier}"));
                let clock_before = s.clock();
                let read = if through_handles {
                    read_in_scope(&s, *family, &row, &qualifier)
                } else {
                    let read = read_by_one_shots(&s, *family, &row, &qualifier);
                    if read.is_err() {
                        read_ops[0].fetch_sub(1, Ordering::Relaxed);
                    }
                    read
                };
                assert_eq!(s.clock(), clock_before, "a read ticks nothing");
                reads.push(read);
            }
            HandleOp::ToggleObserver => match transient_on.take() {
                Some(h) => assert!(s.unregister_observer(h)),
                None => {
                    let observer = Arc::clone(&transient) as Arc<dyn WriteObserver>;
                    transient_on = Some(s.register_observer(observer));
                }
            },
            HandleOp::CreateLate => match s.create_family("t", "late") {
                Ok(()) | Err(StoreError::FamilyExists { .. }) => {}
                Err(e) => panic!("create t/late: {e}"),
            },
            HandleOp::Write {
                family,
                row,
                qualifier,
                put,
                one_shot,
            } => {
                let (table, name) = FAMILIES[*family];
                let (row, qualifier) = (format!("r{row}"), format!("q{qualifier}"));
                let clock_before = s.clock();
                let result = if through_handles && !one_shot {
                    resolved(&s, &mut handles, *family).and_then(|handle| match put {
                        Some(v) => handle.put(&row, &qualifier, v.clone()),
                        None => handle.delete(&row, &qualifier),
                    })
                } else {
                    match put {
                        Some(v) => s.put(table, name, &row, &qualifier, v.clone()),
                        None => s.delete(table, name, &row, &qualifier),
                    }
                };
                // One tick per applied mutation, none for anything else.
                let applied = matches!(&result, Ok(old) if put.is_some() || old.is_some());
                assert_eq!(s.clock(), clock_before + u64::from(applied));
                results.push(result);
            }
            HandleOp::WriteMany { family, cells } => {
                let (table, name) = FAMILIES[*family];
                let cells: Vec<(String, String, Value)> = cells
                    .iter()
                    .map(|(r, q, v)| (format!("r{r}"), format!("q{q}"), v.clone()))
                    .collect();
                let clock_before = s.clock();
                if through_handles {
                    let batch = cells
                        .iter()
                        .map(|(r, q, v)| (r.as_str(), q.as_str(), v.clone()))
                        .collect();
                    let handle = resolved(&s, &mut handles, *family);
                    match handle.and_then(|handle| handle.put_many(batch)) {
                        Ok(()) => results.extend(cells.iter().map(|_| Ok(None))),
                        // The batch is refused whole, like each put of it.
                        Err(e) => results.extend(cells.iter().map(|_| Err(e.clone()))),
                    }
                } else {
                    for (row, qualifier, value) in &cells {
                        let result = s.put(table, name, row, qualifier, value.clone());
                        results.push(result.map(|_| None));
                    }
                }
                let applied = results[results.len() - cells.len()..]
                    .iter()
                    .filter(|r| r.is_ok())
                    .count();
                assert_eq!(s.clock(), clock_before + applied as u64);
            }
        }
    }
    let permanent = permanent.0.lock().unwrap().clone();
    let transient = transient.0.lock().unwrap().clone();
    HandleRun {
        permanent,
        transient,
        results,
        reads,
        read_ops: [0, 1].map(|kind| read_ops[kind].load(Ordering::Relaxed)),
        clock: s.clock(),
        state: s.export_state(),
    }
}

/// One step of the batch-versus-one-shot comparison.
#[derive(Debug, Clone)]
enum BatchOp {
    /// Cells of family `BATCH_FAMILIES[family]`, in order: one `put_many`
    /// in the batch run, that many one-shot `put`s in the reference.
    Batch {
        family: usize,
        cells: Vec<(u8, u8, Value)>,
    },
    /// Unregisters the observer, or registers it again: unobserved, a
    /// batch to a tracked family only folds, to `h` it only stores.
    ToggleObserver,
    /// Records every change set's stream, then moves its mark to now.
    Mark,
}

/// Two tracked families, an untracked one, and one that never exists.
const BATCH_FAMILIES: [&str; 4] = ["f", "g", "h", "nope"];

/// The containers the watch list tracks, each with a change set of its own
/// (numbered by position): both families, and one column of `f`.
fn tracked() -> [ContainerRef; 3] {
    [
        ContainerRef::family("t", "f"),
        ContainerRef::family("t", "g"),
        ContainerRef::column("t", "f", "q1"),
    ]
}

fn batch_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1e6f64..1e6).prop_map(Value::from),
        (-50i64..50).prop_map(Value::I64),
        ".{0,6}".prop_map(Value::from),
        prop::collection::vec(any::<u8>(), 0..4).prop_map(Value::Bytes),
    ]
}

/// Batches of zero to eight cells over few rows and qualifiers — so keys
/// repeat within a batch and across batches, and new rows and cells keep
/// arriving — mostly to `f` and `g`, now and then to `h` and to the
/// missing family.
fn batch_ops() -> impl Strategy<Value = Vec<BatchOp>> {
    const TARGETS: [usize; 8] = [0, 1, 0, 1, 0, 1, 2, 3];
    let op = (
        0usize..10,
        prop::collection::vec((0u8..5, 0u8..3, batch_value()), 0..9),
    )
        .prop_map(|(kind, cells)| match kind {
            0 => BatchOp::ToggleObserver,
            1 => BatchOp::Mark,
            _ => BatchOp::Batch {
                family: TARGETS[kind - 2],
                cells,
            },
        });
    prop::collection::vec(op, 1..60)
}

/// `(n, the (new, old) pairs streamed)` of one change set.
type Streamed = (usize, Vec<(Option<Value>, Option<Value>)>);

/// Everything observable about a run of [`BatchOp`]s.
#[derive(Debug, PartialEq)]
struct BatchRun {
    /// What the observer saw while it was registered.
    seen: Vec<WriteEvent>,
    /// Put operations reported to op observers for cells that applied (a
    /// refused one-shot is timed too; a batch to a missing family never
    /// gets a handle to put through).
    puts: usize,
    /// Cells refused, batch by batch.
    refused: Vec<usize>,
    /// Every change set's stream at each mark and at the end.
    streams: Vec<Streamed>,
    clock: u64,
    state: StoreState,
}

/// Applies `ops` to a fresh store whose containers are tracked by a watch
/// list, as the engine tracks them: each batch through one `put_many`
/// on a handle or, as the reference, as in-order one-shot `put`s.
#[allow(deprecated)] // op observers are kept for the end-to-end benchmark
fn run_batch_ops(ops: &[BatchOp], batched: bool) -> BatchRun {
    let s = store();
    s.create_family("t", "g").expect("fresh store");
    s.create_family("t", "h").expect("fresh store");
    let list = s.watch_list();
    for (number, container) in tracked().iter().enumerate() {
        s.watch(list, container, Some(number));
    }
    let log = Arc::new(BorrowedLog::default());
    let observer = || Arc::clone(&log) as Arc<dyn WriteObserver>;
    let mut observing = Some(s.register_observer(observer()));
    let puts = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&puts);
    s.register_op_observer(Arc::new(move |op: OpKind, _: Duration| {
        if op == OpKind::Put {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }));
    let stream_all = |streams: &mut Vec<Streamed>| {
        for number in 0..tracked().len() {
            let mut updates = Vec::new();
            let n = s.stream_changes(list, number, |new, old| {
                updates.push((new.cloned(), old.cloned()));
            });
            streams.push((n, updates));
        }
    };
    let (mut refused, mut streams) = (Vec::new(), Vec::new());
    for op in ops {
        match op {
            BatchOp::ToggleObserver => match observing.take() {
                Some(h) => assert!(s.unregister_observer(h)),
                None => observing = Some(s.register_observer(observer())),
            },
            BatchOp::Mark => {
                stream_all(&mut streams);
                for number in 0..tracked().len() {
                    s.mark_changes(list, number, Vec::new());
                }
            }
            BatchOp::Batch { family, cells } => {
                let name = BATCH_FAMILIES[*family];
                let cells: Vec<(String, String, Value)> = cells
                    .iter()
                    .map(|(r, q, v)| (format!("r{r}"), format!("q{q}"), v.clone()))
                    .collect();
                let clock_before = s.clock();
                let refused_cells = if batched {
                    let batch = cells
                        .iter()
                        .map(|(r, q, v)| (r.as_str(), q.as_str(), v.clone()))
                        .collect();
                    match s.family("t", name) {
                        Ok(handle) => {
                            handle.put_many(batch).expect("a handle's family is there");
                            0
                        }
                        Err(StoreError::FamilyNotFound { .. }) => cells.len(),
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                } else {
                    cells
                        .iter()
                        .filter(|(r, q, v)| s.put("t", name, r, q, v.clone()).is_err())
                        .count()
                };
                // One tick per cell applied; a refused batch applies none.
                let applied = cells.len() - refused_cells;
                assert_eq!(s.clock(), clock_before + applied as u64);
                refused.push(refused_cells);
            }
        }
    }
    stream_all(&mut streams);
    let seen = log.0.lock().unwrap().clone();
    BatchRun {
        seen,
        puts: puts.load(Ordering::Relaxed) - if batched { 0 } else { refused.iter().sum() },
        refused,
        streams,
        clock: s.clock(),
        state: s.export_state(),
    }
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

    /// A cell is the last write applied to it: after puts, batches and
    /// deletes through handles and one-shots mixed, every exported cell
    /// carries the timestamp and value of the last write a recording observer
    /// saw for it (and a deleted cell is gone), no timestamp is ahead of the
    /// exported clock, and the export survives `from_state` and the durable
    /// encoding unchanged.
    #[test]
    fn exported_cells_are_the_last_observed_writes(ops in handle_ops()) {
        let run = run_handle_ops(&ops, true);
        let mut last = BTreeMap::new();
        for e in &run.permanent {
            let cell = (&e.table, &e.family, &e.row, &e.qualifier);
            match &e.new {
                Some(value) => last.insert(cell, (e.timestamp, value)),
                None => last.remove(&cell),
            };
        }
        let mut exported = BTreeMap::new();
        for table in &run.state.tables {
            for family in &table.families {
                for cell in &family.cells {
                    let [(ts, value)] = &cell.versions;
                    prop_assert!(*ts <= run.state.clock);
                    let at = (&table.name, &family.name, &cell.row, &cell.qualifier);
                    prop_assert!(exported.insert(at, (*ts, value)).is_none());
                }
            }
        }
        prop_assert_eq!(exported, last);
        prop_assert_eq!(run.state.clock, run.clock);

        let restored = DataStore::from_state(run.state.clone()).unwrap();
        prop_assert_eq!(&restored.export_state(), &run.state);
        let decoded = decode_store_state(&encode_store_state(&run.state)).unwrap();
        prop_assert_eq!(&decoded, &run.state);
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

    /// Differential oracle for family handles: a sequence of puts,
    /// overwrites, batches of zero to four cells, deletes of present and
    /// absent cells, writes to a missing table and to a family created only
    /// after the handles were built, with an observer registering and
    /// unregistering along the way, applied through handles to two
    /// interleaved families (one-shots mixed in, each batch one
    /// `put_many`, reads in one read scope each) leaves exactly what
    /// string-addressed one-shots — each batch that many `put`s, each read
    /// that many `get`s and a `scan` — leave: the same
    /// `WriteRef::to_owned()` streams with the same timestamps, the same
    /// results and typed errors, the same values read, as many get and scan
    /// operations reported to op observers, the same clock, the same
    /// exported state.
    #[test]
    fn handles_and_one_shots_are_the_same_store(ops in handle_ops()) {
        let by_handle = run_handle_ops(&ops, true);
        let one_shots = run_handle_ops(&ops, false);
        prop_assert_eq!(by_handle.clock, by_handle.permanent.len() as u64);
        prop_assert_eq!(by_handle, one_shots);
    }

    /// Differential oracle for batches: random batches — empty ones, keys
    /// repeated within and across them, new rows and cells, numbers, texts
    /// and bytes, to tracked families, an untracked one and a missing one —
    /// sent through `put_many` leave exactly what the same cells sent as
    /// in-order one-shot `put`s leave, with the one observer toggled and the
    /// change sets marked along the way: the same exported state (timestamps
    /// included) and clock, the same `WriteRef::to_owned()` stream, the same
    /// count of put operations reported, the same cells refused, and the
    /// same change-set streams and write counts of a watch list tracking two
    /// families and a column.
    #[test]
    fn a_batch_is_its_cells_put_one_by_one(ops in batch_ops()) {
        let batched = run_batch_ops(&ops, true);
        let one_by_one = run_batch_ops(&ops, false);
        prop_assert_eq!(batched.puts as u64, batched.clock);
        prop_assert_eq!(batched, one_by_one);
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

/// Concurrency: concurrent writers to the *same* cell serialise — the pair
/// that survives is the observed write with the largest timestamp, and that
/// timestamp is the clock.
#[test]
fn concurrent_writes_to_one_cell_serialise() {
    let store = store();
    let log = Arc::new(BorrowedLog::default());
    store.register_observer(Arc::clone(&log) as Arc<dyn WriteObserver>);
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
    let seen = log.0.lock().unwrap();
    assert_eq!(seen.len(), THREADS * WRITES);
    let newest = seen
        .iter()
        .max_by_key(|e| e.timestamp)
        .expect("writes were observed");
    let state = store.export_state();
    let [cell] = &state.tables[0].families[0].cells[..] else {
        panic!("one hot cell, got {:?}", state.tables);
    };
    let [(ts, value)] = &cell.versions;
    assert_eq!((*ts, Some(value)), (newest.timestamp, newest.new.as_ref()));
    assert_eq!(newest.timestamp, (THREADS * WRITES) as u64);
    assert_eq!(state.clock, newest.timestamp);
}

/// Concurrency: `put_many` writes its cells under one write guard, so a
/// reader that visits the family — under the read guard — sees the cells of
/// one batch, never a mix of two, even when the batch spans rows.
#[test]
fn a_batch_is_atomic_for_readers() {
    use std::sync::atomic::{AtomicBool, Ordering};

    const ROWS: [&str; 3] = ["r0", "r1", "r2"];
    const QUALIFIERS: [&str; 2] = ["a", "b"];
    let store = store();
    const ROUNDS: i64 = 2_000;
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let family = store.family("t", "f").expect("family exists");
            for i in 1..=ROUNDS {
                let cells = ROWS
                    .iter()
                    .flat_map(|r| QUALIFIERS.map(|q| (*r, q, Value::I64(i))))
                    .collect();
                family.put_many(cells).expect("write succeeds");
            }
            done.store(true, Ordering::Release);
        });
        scope.spawn(|| {
            while !done.load(Ordering::Acquire) {
                let seen: Vec<_> = store.read(|r| {
                    let family = r.family("t", "f").expect("family exists");
                    let rows = family.rows();
                    rows.flat_map(|(_, row)| QUALIFIERS.map(|q| row.value(q).cloned()))
                        .collect()
                });
                assert!(
                    seen.is_empty() || (seen.len() == 6 && seen.iter().all(|v| *v == seen[0])),
                    "half a batch: {seen:?}"
                );
            }
        });
    });
    assert_eq!(store.clock(), 6 * ROUNDS as u64);
}
