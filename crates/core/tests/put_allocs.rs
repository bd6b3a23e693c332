//! The write path allocates nothing per tracked and observed cell.
//!
//! Interception "costs next to nothing" (paper §5.3) only while nothing on
//! the write path copies a key: the store folds the write into a watch
//! list's change set under its write guard (a cell seen before reuses
//! its slot and its change), it builds no event, the WAL capture reads the
//! borrowed notification in place, and only an observer that asks for an
//! owned `WriteEvent` pays for one. A counting
//! global allocator pins that down, so a stray `to_owned()` on the hot
//! path fails here instead of showing up as a slower wave. A cell is its
//! current value and nothing else, so an overwrite moves the displaced value
//! out to the caller — a text is not copied on the way — and a new cell asks
//! for its qualifier key plus, when the row's cell vector is full, that
//! vector's growth (it doubles, so one request in a while, not one a cell).
//! The same holds through a `FamilyHandle` — resolving one, an observed
//! overwriting `put`, a `get_f64` and a whole-family `for_each_row` request no
//! heap, which is the point of reading rows in place: `scan` of the same
//! family makes some 1 200 requests to hand back three numbers a row. A
//! `put_many` of the whole wave asks for one buffer when observed and none
//! otherwise. The allocator is process-wide, hence a test binary of its own
//! with a single test.

#![allow(deprecated)] // the WAL capture is the store-level one, kept for benchmark/

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use smartflux::{DurabilityOptions, SyncPolicy};
use smartflux_datastore::{ContainerRef, DataStore, FamilyHandle, ScanFilter, Value, WriteEvent};
use smartflux_durability::DurabilityManager;

/// Forwards to the system allocator, counting this thread's requests.
struct Counting;

thread_local! {
    static REQUESTS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // No destructor is registered for a const-initialised `Cell<u64>`, so
    // this is reachable at any point of a thread's life.
    let _ = REQUESTS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap requests (alloc, zeroed alloc, realloc) this thread makes in `f`.
fn requests_during(f: impl FnOnce()) -> u64 {
    let before = REQUESTS.with(Cell::get);
    f();
    REQUESTS.with(Cell::get) - before
}

/// The `lrb` segment-statistics shape: 240 rows × 3 qualifiers.
const ROWS: usize = 240;
const QUALIFIERS: [&str; 3] = ["speed", "count", "toll"];
const CELLS: u64 = (ROWS * QUALIFIERS.len()) as u64;

/// Overwrites every cell once with a numeric value derived from `wave`.
fn write_wave(store: &DataStore, rows: &[String], wave: u64) {
    for (r, row) in rows.iter().enumerate() {
        for qualifier in QUALIFIERS {
            store
                .put(
                    "t",
                    "f",
                    row,
                    qualifier,
                    Value::from((wave + r as u64) as f64),
                )
                .unwrap();
        }
    }
}

/// [`write_wave`]'s cells as one batch, for `FamilyHandle::put_many`.
fn wave_cells(rows: &[String], wave: u64) -> Vec<(&str, &'static str, Value)> {
    let mut cells = Vec::with_capacity(rows.len() * QUALIFIERS.len());
    for (r, row) in rows.iter().enumerate() {
        for qualifier in QUALIFIERS {
            cells.push((&**row, qualifier, Value::from((wave + r as u64) as f64)));
        }
    }
    cells
}

/// [`write_wave`] through a handle resolved once.
fn write_wave_by_handle(family: &FamilyHandle<'_>, rows: &[String], wave: u64) {
    for (r, row) in rows.iter().enumerate() {
        for qualifier in QUALIFIERS {
            family
                .put(row, qualifier, Value::from((wave + r as u64) as f64))
                .unwrap();
        }
    }
}

#[test]
fn an_observed_overwriting_put_allocates_nothing() {
    let rows: Vec<String> = (0..ROWS).map(|i| format!("x{}-s{i:03}", i % 4)).collect();
    let container = ContainerRef::family("t", "f");

    // Unobserved: no event is built at all.
    let bare = DataStore::new();
    bare.ensure_container(&container).unwrap();
    write_wave(&bare, &rows, 0);
    assert_eq!(requests_during(|| write_wave(&bare, &rows, 1)), 0);
    // ...nor as one batch: the caller built the cells, and the store asks
    // for nothing more.
    let batch = wave_cells(&rows, 2);
    let bare_family = bare.family("t", "f").unwrap();
    assert_eq!(requests_during(|| bare_family.put_many(batch).unwrap()), 0);
    // A first write to a new qualifier of an existing row asks for the
    // qualifier key, and for the row's cell vector to grow when it is full:
    // a row's vector starts at four cells and doubles, so the fourth cell of
    // these three-cell rows is its key alone and the fifth is its key and a
    // regrowth. Overwriting a text hands the displaced string back, not a
    // copy of it.
    let labels = |tag: &str| -> Vec<Value> {
        let label = |row| Value::from(format!("{tag}-{row}"));
        rows.iter().map(label).collect()
    };
    let put_labels = |qualifier: &str, labels: Vec<Value>| {
        for (row, label) in rows.iter().zip(labels) {
            bare.put("t", "f", row, qualifier, label).unwrap();
        }
    };
    let (first, second, fifth) = (labels("a"), labels("b"), labels("c"));
    assert_eq!(requests_during(|| put_labels("label", first)), ROWS as u64);
    assert_eq!(requests_during(|| put_labels("label", second)), 0);
    assert_eq!(
        requests_during(|| put_labels("note", fifth)),
        2 * ROWS as u64
    );

    // Tracked by a change set, which the store folds the write into, and
    // observed by the WAL capture, which reads the borrowed event in place.
    let store = DataStore::new();
    store.ensure_container(&container).unwrap();
    let changes = store.watch_list();
    store.watch(changes, &container, Some(0));
    let dir = std::env::temp_dir().join(format!("smartflux-put-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal =
        DurabilityManager::open(DurabilityOptions::new(&dir).with_sync(SyncPolicy::Never)).unwrap();
    let _wal_handle = wal.attach(&store);
    // A wave as the engine runs it: steps write, the tracker's baseline
    // moves, the batch is committed. Warm-up grows the change set and the
    // capture buffer to their steady size.
    let end_wave = |wave: u64| {
        store.mark_changes(changes, 0, Vec::new());
        wal.commit_wave(wave, store.clock()).unwrap();
    };
    for wave in 0..8 {
        write_wave(&store, &rows, wave);
        end_wave(wave);
    }
    assert_eq!(requests_during(|| write_wave(&store, &rows, 8)), 0);
    assert_eq!(wal.pending_ops() as u64, CELLS);
    end_wave(8);

    // The same wave through a family handle, as a step writes it: neither
    // resolving the handle nor an observed overwrite through it allocates,
    // and the capture still got every cell.
    assert_eq!(
        requests_during(|| {
            store.family("t", "f").unwrap();
        }),
        0
    );
    let family = store.family("t", "f").unwrap();
    assert_eq!(
        requests_during(|| write_wave_by_handle(&family, &rows, 9)),
        0
    );
    assert_eq!(wal.pending_ops() as u64, CELLS);
    end_wave(9);
    // ...and as one batch under one guard: observed, it asks for exactly
    // one buffer, of the displaced values the observers are handed once the
    // guard is gone — one a call, none a cell.
    let batch = wave_cells(&rows, 9);
    assert_eq!(requests_during(|| family.put_many(batch).unwrap()), 1);
    assert_eq!(wal.pending_ops() as u64, CELLS);
    end_wave(9);

    // Reading in place: a numeric get, and the whole family row by row.
    let mut sum = 0.0;
    let gets = requests_during(|| {
        for row in &rows {
            sum += family.get_f64(row, "speed").unwrap().unwrap_or(0.0);
        }
    });
    let visit = requests_during(|| {
        family
            .for_each_row(|_, row| {
                for qualifier in QUALIFIERS {
                    sum -= row.f64(qualifier).unwrap_or(0.0);
                }
            })
            .unwrap();
    });
    assert_eq!((gets, visit), (0, 0));
    assert!(sum < 0.0);
    // What the visitor replaces: `scan` copies a key, a column vector and
    // three qualifiers per row (plus the growth of the result vector).
    let scan = requests_during(|| {
        let rows = store.scan("t", "f", &ScanFilter::all()).unwrap();
        assert_eq!(rows.len(), ROWS);
    });
    assert!(
        (5 * ROWS as u64..5 * ROWS as u64 + 16).contains(&scan),
        "scan made {scan} heap requests"
    );

    // A closure observer asks for the owned form, and pays for exactly
    // that: four key strings per event (numeric values own no heap).
    let kept = Arc::new(AtomicU64::new(0));
    let sink = Arc::clone(&kept);
    store.register_observer(Arc::new(move |event: &WriteEvent| {
        sink.fetch_add(event.timestamp, Ordering::Relaxed);
    }));
    assert_eq!(requests_during(|| write_wave(&store, &rows, 10)), 4 * CELLS);
    end_wave(10);
    assert_eq!(
        requests_during(|| write_wave_by_handle(&family, &rows, 11)),
        4 * CELLS
    );
    assert!(kept.load(Ordering::Relaxed) > 0);

    std::fs::remove_dir_all(&dir).unwrap();
}
