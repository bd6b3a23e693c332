//! Observer dispatch under shard concurrency.
//!
//! The sharded store notifies `WriteObserver`s and `OpObserver`s *after*
//! releasing the owning shard's guard, from a pre-materialized `Arc`
//! snapshot of the dispatch list. These tests pin down the contract that
//! matters for the Monitor and the WAL: every mutation produces exactly
//! one callback (no drops, no duplicates under concurrency), callbacks may
//! re-enter the store — even the same shard — without deadlocking, and an
//! observer may unregister itself from inside its own callback.
//!
//! There is one dispatch path and two ways onto it: an observer that reads
//! the borrowed `WriteRef` in place (the Monitor, the WAL capture), and an
//! `Fn(&WriteEvent)` closure that is handed an owned copy. Every case runs
//! for each form and for both registered side by side.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use smartflux_datastore::{
    DataStore, ObserverHandle, OpKind, ShardPolicy, Value, WriteEvent, WriteKind, WriteObserver,
    WriteRef,
};

const THREADS: usize = 4;
// Miri interprets every operation and runs orders of magnitude slower
// than native; a smaller hammer still drives the same cross-shard and
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

fn sharded_store(tables: &[&str]) -> DataStore {
    let store = DataStore::with_shard_policy(ShardPolicy::Auto);
    for table in tables {
        store.create_table(table).unwrap();
        store.create_family(table, "f").unwrap();
    }
    store
}

fn hammer_puts(store: &DataStore, table: &'static str) {
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = store.clone();
            scope.spawn(move || {
                for i in 0..PUTS_PER_THREAD {
                    let row = format!("r{}", i % 16);
                    let qual = format!("q{t}");
                    let v = (t * PUTS_PER_THREAD + i) as i64;
                    store.put(table, "f", &row, &qual, Value::I64(v)).unwrap();
                }
            });
        }
    });
}

#[test]
fn every_write_fires_exactly_one_callback() {
    for mix in MIXES {
        let store = sharded_store(&["src"]);
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

        hammer_puts(&store, "src");

        let total = THREADS * PUTS_PER_THREAD;
        for log in &logs {
            let mut timestamps = log.lock().unwrap().clone();
            // Exactly one write event per put...
            assert_eq!(timestamps.len(), total, "{mix:?}");
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
    // of the outer write still alive on the stack below it. Shard guards
    // are released before dispatch, so this must not deadlock even when
    // `src/f` and the mirror hash to the same shard (with one shard they
    // always do).
    const MIRRORS: [&str; 2] = ["mirror0", "mirror1"];
    for policy in [
        ShardPolicy::Single,
        ShardPolicy::Fixed(2),
        ShardPolicy::Auto,
    ] {
        for mix in MIXES {
            let store = sharded_store(&["src", MIRRORS[0], MIRRORS[1]]);
            let store = DataStore::from_state_with_policy(store.export_state(), policy).unwrap();
            for (&form, mirror) in mix.iter().zip(MIRRORS) {
                let mirror_writer = store.clone();
                store.register_observer(observer(form, move |event| {
                    if event.table != "src" {
                        return; // don't mirror the mirror writes
                    }
                    mirror_writer
                        .put(
                            mirror,
                            "f",
                            event.row,
                            event.qualifier,
                            event.new.cloned().unwrap(),
                        )
                        .unwrap();
                }));
            }

            hammer_puts(&store, "src");

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
                            "{mirror} of {row}/{qual} diverged ({policy:?}, {mix:?})"
                        );
                    }
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
    // during which the first one left.
    for mix in MIXES {
        let store = sharded_store(&["src"]);
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

        store.put("src", "f", "r", "q", Value::I64(1)).unwrap();
        store.put("src", "f", "r", "q", Value::I64(2)).unwrap();

        for (h, fired) in registered {
            // Fired for the first write only; the second found an empty bus.
            assert_eq!(fired.load(Ordering::Relaxed), 1, "{mix:?}");
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
    for mix in MIXES {
        let store = sharded_store(&["src"]);
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
            let storm = scope.spawn(move || hammer_puts(&writer, "src"));

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
            assert_eq!(count.load(Ordering::Relaxed), total, "{mix:?}");
        }
        assert_eq!(store.clock(), total);
    }
}
