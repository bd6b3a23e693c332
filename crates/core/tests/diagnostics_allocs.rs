//! Reading the decision history costs what the read returns, not what the
//! session has lived through.
//!
//! `SmartFluxSession::diagnostics()` is a snapshot of the engine's
//! shared-chunk log: under the engine lock it copies one pointer per chunk
//! into one new vector and bumps each chunk's reference count. A counting
//! global allocator pins that down — one heap request after a thousand
//! waves and one after twenty thousand — so a read that deep-copies the
//! rows again (two or three requests per recorded wave) fails here. The
//! allocator is process-wide, hence a test binary of its own. It also pins
//! what a retained row holds: the ground truth of training rows costs an
//! application row no heap block.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use smartflux::{EngineConfig, SmartFluxSession};
use smartflux_datastore::{ContainerRef, DataStore, Value};
use smartflux_wms::{FnStep, GraphBuilder, StepContext, Workflow};

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

/// `feed → smooth`: four drifting cells and a bounded smoothed copy.
fn session() -> SmartFluxSession {
    let store = DataStore::new();
    let raw = ContainerRef::family("t", "raw");
    let smooth = ContainerRef::family("t", "smooth");
    store.ensure_container(&raw).unwrap();
    store.ensure_container(&smooth).unwrap();
    let mut g = GraphBuilder::new("diagnostics-allocs");
    let feed = g.add_step("feed");
    let smoother = g.add_step("smooth");
    g.add_edge(feed, smoother).unwrap();
    let mut wf = Workflow::new(g.build().unwrap());
    wf.bind(
        feed,
        FnStep::new(|ctx: &StepContext| {
            let w = ctx.wave() as f64;
            for (i, q) in ["a", "b", "c", "d"].into_iter().enumerate() {
                let v = 10.0 + ((w + i as f64) / 7.0).sin();
                ctx.put("t", "raw", "row", q, Value::from(v))?;
            }
            Ok(())
        }),
    )
    .source()
    .writes(raw.clone());
    wf.bind(
        smoother,
        FnStep::new(|ctx: &StepContext| {
            for q in ["a", "b", "c", "d"] {
                let v = ctx.get_f64("t", "raw", "row", q, 0.0)?;
                ctx.put("t", "smooth", "row", q, Value::from(v))?;
            }
            Ok(())
        }),
    )
    .reads(raw)
    .writes(smooth)
    .error_bound(0.05);
    let config = EngineConfig::new()
        .with_training_waves(40)
        .with_quality_gates(0.0, 0.0)
        .with_seed(5);
    SmartFluxSession::new(wf, store, config).unwrap()
}

/// Heap requests of one `diagnostics()` read, and the rows it returned.
fn read(session: &SmartFluxSession) -> (u64, usize) {
    let mut rows = 0;
    let requests = requests_during(|| rows = session.diagnostics().len());
    (requests, rows)
}

#[test]
fn a_diagnostics_read_makes_one_request_however_long_the_history() {
    let mut s = session();
    s.run_waves(1_000).unwrap();
    let short = read(&s);
    s.run_waves(19_000).unwrap();
    let long = read(&s);
    assert_eq!(short, (1, 1_000));
    assert_eq!(long, (1, 20_000));
}

#[test]
fn an_application_row_holds_two_heap_blocks_and_a_training_row_five() {
    let mut s = session();
    s.run_waves(50).unwrap();
    let blocks = |training: bool| {
        let row = s
            .diagnostics()
            .iter()
            .find(|d| d.training == training)
            .cloned();
        requests_during(|| drop(std::hint::black_box(row.clone())))
    };
    // Impacts and decisions; a training row adds the box, ε and confidence.
    assert_eq!((blocks(false), blocks(true)), (2, 5));
}
