//! Observer dispatch under concurrent writers.
//!
//! The store notifies `WriteObserver`s and `OpObserver`s *after* releasing
//! its lock, from a pre-materialized `Arc` snapshot of the dispatch list.
//! These tests pin down the contract that matters for the WAL capture and
//! any other observer: every mutation produces exactly one callback (no drops, no
//! duplicates under concurrency), callbacks may re-enter the store without
//! deadlocking, and an observer may unregister itself from inside its own
//! callback.
//!
//! There is one dispatch path and two ways onto it: an observer that reads
//! the borrowed `WriteRef` in place (the WAL capture), and an
//! `Fn(&WriteEvent)` closure that is handed an owned copy. Every case runs
//! for each form and for both registered side by side — and once with the
//! writers string-addressing every `put`, once with each writer going
//! through a `FamilyHandle` it resolved up front, which must keep all four
//! guarantees.

#![allow(deprecated)] // the op-observer bus, kept for benchmark/

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use smartflux_datastore::{
    DataStore, ObserverHandle, OpKind, OpObserver, Value, WriteEvent, WriteKind, WriteObserver,
    WriteRef,
};

const THREADS: usize = 4;
// Miri interprets every operation and runs orders of magnitude slower
// than native; a smaller hammer still drives the same lock and
// dispatch-list interleavings the suite exists to check.
#[cfg(not(miri))]
const PUTS_PER_THREAD: usize = 1_000;
#[cfg(miri)]
const PUTS_PER_THREAD: usize = 25;

/// How a test callback gets onto the bus.
#[derive(Debug, Clone, Copy)]
enum Form {
    /// A `WriteObserver` reading the borrowed view in place.
    Borrowed,
    /// An `Fn(&WriteEvent)` closure, handed an owned copy.
    Owned,
}

/// One observer of each form alone, then both together.
const MIXES: [&[Form]; 3] = [
    &[Form::Borrowed],
    &[Form::Owned],
    &[Form::Borrowed, Form::Owned],
];

/// How the writers address the store.
#[derive(Debug, Clone, Copy)]
enum Via {
    /// `store.put(table, family, ..)` per cell.
    OneShot,
    /// One `store.family(table, family)` per writer, then `handle.put(..)`.
    Handle,
}

const VIAS: [Via; 2] = [Via::OneShot, Via::Handle];

/// `(observer forms, writer addressing)`: every combination.
fn cases() -> impl Iterator<Item = (&'static [Form], Via)> {
    MIXES
        .into_iter()
        .flat_map(|mix| VIAS.into_iter().map(move |via| (mix, via)))
}

struct Borrowed<F>(F);

impl<F: Fn(&WriteRef<'_>) + Send + Sync> WriteObserver for Borrowed<F> {
    fn on_write(&self, event: &WriteRef<'_>) {
        (self.0)(event);
    }
}

/// Wraps `f` as an observer of the given form.
fn observer(
    form: Form,
    f: impl Fn(&WriteRef<'_>) + Send + Sync + 'static,
) -> Arc<dyn WriteObserver> {
    match form {
        Form::Borrowed => Arc::new(Borrowed(f)),
        Form::Owned => Arc::new(move |event: &WriteEvent| f(&event.as_write_ref())),
    }
}

/// Records the kind of every operation.
struct Ops(Mutex<Vec<OpKind>>);

impl OpObserver for Ops {
    fn on_op(&self, op: OpKind, _elapsed: Duration) {
        self.0.lock().unwrap().push(op);
    }
}

fn store_with(tables: &[&str]) -> DataStore {
    let store = DataStore::new();
    for table in tables {
        store.create_table(table).unwrap();
        store.create_family(table, "f").unwrap();
    }
    store
}

fn hammer_puts(store: &DataStore, table: &'static str, via: Via) {
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = store.clone();
            scope.spawn(move || {
                let family = store.family(table, "f").unwrap();
                for i in 0..PUTS_PER_THREAD {
                    let row = format!("r{}", i % 16);
                    let qual = format!("q{t}");
                    let v = Value::I64((t * PUTS_PER_THREAD + i) as i64);
                    match via {
                        Via::OneShot => store.put(table, "f", &row, &qual, v),
                        Via::Handle => family.put(&row, &qual, v),
                    }
                    .unwrap();
                }
            });
        }
    });
}

#[test]
fn every_write_fires_exactly_one_callback() {
    for (mix, via) in cases() {
        let store = store_with(&["src"]);
        let logs: Vec<Arc<Mutex<Vec<u64>>>> = mix
            .iter()
            .map(|&form| {
                let log: Arc<Mutex<Vec<u64>>> = Arc::default();
                let sink = Arc::clone(&log);
                store.register_observer(observer(form, move |event| {
                    assert_eq!(event.kind, WriteKind::Put);
                    sink.lock().unwrap().push(event.timestamp);
                }));
                log
            })
            .collect();

        let ops = Arc::new(AtomicUsize::new(0));
        let op_sink = Arc::clone(&ops);
        store.register_op_observer(Arc::new(move |op: OpKind, _elapsed: Duration| {
            if op == OpKind::Put {
                op_sink.fetch_add(1, Ordering::Relaxed);
            }
        }));

        hammer_puts(&store, "src", via);

        let total = THREADS * PUTS_PER_THREAD;
        for log in &logs {
            let mut timestamps = log.lock().unwrap().clone();
            // Exactly one write event per put...
            assert_eq!(timestamps.len(), total, "{mix:?} {via:?}");
            // ...each carrying a distinct store timestamp covering 1..=total.
            timestamps.sort_unstable();
            assert_eq!(timestamps, (1..=total as u64).collect::<Vec<_>>());
        }
        // The op observer saw the same count through its own bus.
        assert_eq!(ops.load(Ordering::Relaxed), total);
        assert_eq!(store.clock(), total as u64);
    }
}

#[test]
fn callbacks_may_reenter_the_store_without_deadlocking() {
    // Each observer mirrors every write on `src` into a table of its own —
    // a write issued from inside a write callback, with the borrowed view
    // of the outer write still alive on the stack below it. It needs the
    // lock the outer write took, which is released before dispatch, so
    // this must not deadlock. The store is rebuilt through `from_state`,
    // whose families must dispatch like created ones.
    const MIRRORS: [&str; 2] = ["mirror1", "mirror2"];
    for (mix, via) in cases() {
        let store = store_with(&["src", MIRRORS[0], MIRRORS[1]]);
        let store = DataStore::from_state(store.export_state()).unwrap();
        for (&form, mirror) in mix.iter().zip(MIRRORS) {
            let mirror_writer = store.clone();
            store.register_observer(observer(form, move |event| {
                if event.table != "src" {
                    return; // don't mirror the mirror writes
                }
                // The re-entrant write takes the same route as the
                // outer one: a handle built inside the callback.
                let value = event.new.cloned().unwrap();
                match via {
                    Via::OneShot => {
                        mirror_writer.put(mirror, "f", event.row, event.qualifier, value)
                    }
                    Via::Handle => mirror_writer.family(mirror, "f").unwrap().put(
                        event.row,
                        event.qualifier,
                        value,
                    ),
                }
                .unwrap();
            }));
        }

        hammer_puts(&store, "src", via);

        // Every src cell has a mirror twin with the same final value.
        // (Mirror writes race with src writes, so only the *final* value
        // per cell is deterministic: the mirror put for the winning src
        // write happens strictly after it.)
        for mirror in &MIRRORS[..mix.len()] {
            for i in 0..16 {
                let row = format!("r{i}");
                for t in 0..THREADS {
                    let qual = format!("q{t}");
                    let src = store.get("src", "f", &row, &qual).unwrap();
                    let twin = store.get(mirror, "f", &row, &qual).unwrap();
                    assert!(src.is_some());
                    assert_eq!(
                        src, twin,
                        "{mirror} of {row}/{qual} diverged ({mix:?}, {via:?})"
                    );
                }
            }
        }
    }
}

#[test]
fn an_observer_can_unregister_itself_from_its_own_callback() {
    // Dispatch iterates an Arc snapshot with the bus lock released, so an
    // observer calling back into `unregister_observer` must not deadlock —
    // and in a mix, the one behind it in the snapshot still gets the write
    // during which the first one left; the second write, through a handle
    // as through the store, reaches only the ones still registered.
    for (mix, via) in cases() {
        let store = store_with(&["src"]);
        let registered: Vec<(ObserverHandle, Arc<AtomicU64>)> = mix
            .iter()
            .map(|&form| {
                let handle: Arc<OnceLock<ObserverHandle>> = Arc::new(OnceLock::new());
                let fired = Arc::new(AtomicU64::new(0));
                let my_handle = Arc::clone(&handle);
                let my_fired = Arc::clone(&fired);
                let unregister_on = store.clone();
                let h = store.register_observer(observer(form, move |_event| {
                    my_fired.fetch_add(1, Ordering::Relaxed);
                    let h = *my_handle.get().expect("handle published before writes");
                    assert!(unregister_on.unregister_observer(h));
                }));
                handle.set(h).unwrap();
                (h, fired)
            })
            .collect();

        let family = store.family("src", "f").unwrap();
        for v in [1, 2] {
            match via {
                Via::OneShot => store.put("src", "f", "r", "q", Value::I64(v)),
                Via::Handle => family.put("r", "q", Value::I64(v)),
            }
            .unwrap();
        }

        for (h, fired) in registered {
            // Fired for the first write only; the second found an empty bus.
            assert_eq!(fired.load(Ordering::Relaxed), 1, "{mix:?} {via:?}");
            // Unregistering again reports the handle as gone.
            assert!(!store.unregister_observer(h));
        }
    }
}

#[test]
fn registration_churn_does_not_disturb_a_permanent_observer() {
    // A churn thread registers and unregisters transient observers — of
    // alternating form — while writers storm the store. The dispatch-list
    // rebuilds race with in-flight notifications, but every permanent
    // observer still sees every write exactly once.
    for (mix, via) in cases() {
        let store = store_with(&["src"]);
        let permanent: Vec<Arc<AtomicU64>> = mix
            .iter()
            .map(|&form| {
                let count = Arc::new(AtomicU64::new(0));
                let sink = Arc::clone(&count);
                store.register_observer(observer(form, move |_event| {
                    sink.fetch_add(1, Ordering::Relaxed);
                }));
                count
            })
            .collect();

        std::thread::scope(|scope| {
            let writer = store.clone();
            let storm = scope.spawn(move || hammer_puts(&writer, "src", via));

            let churner = store.clone();
            scope.spawn(move || {
                let mut form = Form::Borrowed;
                while !storm.is_finished() {
                    let hits = Arc::new(AtomicU64::new(0));
                    let h = churner.register_observer(observer(form, move |_event| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    }));
                    std::thread::yield_now();
                    assert!(churner.unregister_observer(h));
                    form = match form {
                        Form::Borrowed => Form::Owned,
                        Form::Owned => Form::Borrowed,
                    };
                }
            });
        });

        let total = (THREADS * PUTS_PER_THREAD) as u64;
        for count in &permanent {
            assert_eq!(count.load(Ordering::Relaxed), total, "{mix:?} {via:?}");
        }
        assert_eq!(store.clock(), total);
    }
}

#[test]
fn a_handle_call_is_one_op() {
    // `datastore.writes_per_wave` / `reads_per_wave` and the simulator's
    // `clock == store.writes` count ops: a handle call must be exactly the
    // op its string-addressed twin is, and resolving a handle must be none.
    let store = store_with(&["a", "b", "c"]);
    let ops = Arc::new(Ops(Mutex::default()));
    store.register_op_observer(Arc::clone(&ops) as Arc<dyn OpObserver>);
    let seen = || std::mem::take(&mut *ops.0.lock().unwrap());
    for table in ["a", "b", "c"] {
        store.put(table, "f", "r", "q", Value::I64(0)).unwrap();
        assert_eq!(seen(), [OpKind::Put], "a one-shot put is one op");

        let family = store.family(table, "f").unwrap();
        assert_eq!(seen(), [], "resolving a handle is not an op");
        family.put("r", "q", Value::I64(1)).unwrap();
        assert_eq!(seen(), [OpKind::Put]);
        // A read scope is as many gets as it reads cells — by key or from
        // a row found once — and a scan per row walk; resolving a family in
        // it, or finding none, is no op.
        let read = store.read(|r| {
            let f = r.family(table, "f").unwrap();
            assert!(r.family(table, "missing").is_err());
            let row = f.row("r");
            let cells = (f.get("r", "q").cloned(), f.get_f64("r", "q"), row.f64("q"));
            (cells, row.value("absent").cloned(), f.rows().count())
        });
        let cells = (Some(Value::I64(1)), Some(1.0), Some(1.0));
        assert_eq!(read, (cells, None, 1));
        let reads = [
            OpKind::Get,
            OpKind::Get,
            OpKind::Get,
            OpKind::Get,
            OpKind::Scan,
        ];
        assert_eq!(seen(), reads);
        store.read(|r| r.family(table, "f").map(|_| ())).unwrap();
        assert_eq!(seen(), []);
        // A batch is as many puts as it has cells, whatever rows they are
        // in, and an empty one is none.
        let cells = [("r", "q"), ("r2", "q2"), ("r", "q3")].map(|(r, q)| (r, q, Value::I64(2)));
        family.put_many(cells.to_vec()).unwrap();
        assert_eq!(seen(), [OpKind::Put; 3]);
        family.put_many(Vec::new()).unwrap();
        assert_eq!(seen(), []);
        family.delete("r", "q").unwrap();
        assert_eq!(seen(), [OpKind::Delete]);
        // A delete that removes nothing is still the op that was paid for.
        family.delete("r", "q").unwrap();
        assert_eq!(seen(), [OpKind::Delete]);
    }
}
