//! A submitted batch goes from its frame into the store without a heap
//! request per write.
//!
//! The server checks a `SubmitWave` body whole and then applies it in
//! place: the keys are borrowed from the frame, a numeric value is moved
//! into its cell, and an overwrite of an existing cell asks the store for
//! nothing. So checking and applying a batch of `F64` writes makes as many
//! heap requests at 16 writes as at 64, where the owned decode pays four
//! key strings a write before the store sees a byte. A counting global
//! allocator pins that down; it is process-wide, hence a test binary of its
//! own with a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use smartflux::EngineConfig;
use smartflux_datastore::{ContainerRef, DataStore, Value};
use smartflux_net::wire::{self, RequestRef};
use smartflux_net::{
    ContainerWrite, EngineHost, HostConfig, Request, Response, SessionSpec, WorkflowRegistry,
};
use smartflux_telemetry::Telemetry;
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

/// The two-step ramp workflow, whose session tracks `t/raw`.
fn ramp_workflow(store: &DataStore) -> Workflow {
    let raw = ContainerRef::family("t", "raw");
    let out = ContainerRef::family("t", "out");
    store.ensure_container(&raw).unwrap();
    store.ensure_container(&out).unwrap();
    let mut g = GraphBuilder::new("ramp");
    let feed = g.add_step("feed");
    let agg = g.add_step("agg");
    g.add_edge(feed, agg).unwrap();
    let mut wf = Workflow::new(g.build().unwrap());
    wf.bind(
        feed,
        FnStep::new(|ctx: &StepContext| {
            ctx.put("t", "raw", "r", "v", Value::from(ctx.wave() as f64))?;
            Ok(())
        }),
    )
    .source()
    .writes(raw.clone());
    wf.bind(
        agg,
        FnStep::new(|ctx: &StepContext| {
            let v = ctx.get_f64("t", "raw", "r", "v", 0.0)?;
            ctx.put("t", "out", "r", "v", Value::from(v))?;
            Ok(())
        }),
    )
    .reads(raw)
    .writes(out)
    .error_bound(0.05);
    wf
}

/// An ingest-only `SubmitWave` payload of `n` `F64` writes to `t/raw`.
fn submit_payload(session: u64, n: usize, wave: u64) -> Vec<u8> {
    let writes = (0..n)
        .map(|i| ContainerWrite {
            table: "t".into(),
            family: "raw".into(),
            row: format!("s{i:03}"),
            qualifier: "v".into(),
            value: Value::from((wave * 100 + i as u64) as f64),
        })
        .collect();
    wire::encode_request(&Request::SubmitWave {
        session,
        writes,
        run_wave: false,
    })
}

#[test]
fn checking_and_applying_a_batch_asks_for_no_heap_per_write() {
    let mut registry = WorkflowRegistry::new();
    registry.register(
        "ramp",
        EngineConfig::new()
            .with_training_waves(10)
            .with_quality_gates(0.3, 0.3)
            .with_seed(1),
        ramp_workflow,
    );
    let host = EngineHost::new(registry, HostConfig::new(), Telemetry::enabled());
    let Response::SessionOpened { session, .. } = host.open_session(&SessionSpec {
        workload: "ramp".into(),
        ..SessionSpec::default()
    }) else {
        panic!("the ramp session opens");
    };
    // What the server does with a frame's payload after its CRC checks out.
    let check_and_apply = |payload: &[u8]| {
        let Ok(RequestRef::SubmitWave {
            session,
            writes,
            run_wave,
        }) = wire::decode_request_ref(payload)
        else {
            panic!("the batch checks out");
        };
        let response = host.submit_batch(session, writes, run_wave);
        assert!(
            matches!(response, Response::Ingested { .. }),
            "{response:?}"
        );
    };
    let (small, large) = (
        submit_payload(session, 16, 1),
        submit_payload(session, 64, 2),
    );
    // Warm-up creates every cell and grows the session's change tracking
    // to its steady size; after it, every write overwrites.
    for _ in 0..2 {
        check_and_apply(&large);
        check_and_apply(&small);
    }
    let at_16 = requests_during(|| check_and_apply(&small));
    let at_64 = requests_during(|| check_and_apply(&large));
    assert_eq!(
        at_16, at_64,
        "16 writes: {at_16} requests, 64 writes: {at_64}"
    );

    // What the in-place path saves: the owned decode copies four keys a
    // write.
    let owned = |payload: &[u8]| requests_during(|| drop(wire::decode_request(payload).unwrap()));
    assert!(owned(&large) - owned(&small) >= 4 * 48);
    host.shutdown();
}
