//! The damage batteries over what a checkpoint holds — the engine-state
//! blob (`SFES`) and the checkpoint file around it (`SFCP`) — flipped and
//! truncated at every offset ([`smartflux_sim::faults::wire`]): a typed
//! error every time, nothing changed, no panic, no reservation a damaged
//! count talked the decoder into. The blob holds no models (recovery
//! refits them from its knowledge base), so there is no third format.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use smartflux::{CoreError, DurabilityError, QodEngine, SharedEngine};
use smartflux_datastore::{ContainerRef, DataStore, Value};
use smartflux_durability::codec::{write_frame, FRAME_HEADER};
use smartflux_durability::{
    encode_store_state, read_checkpoint, write_checkpoint, Checkpoint, CHECKPOINT_FILE,
};
use smartflux_sim::faults::wire;
use smartflux_sim::{workload, Scenario};
use smartflux_wms::Scheduler;

/// A trained engine over a generated scenario, its blob, and a fresh engine
/// over the same store to import into.
fn exported_state() -> (Vec<u8>, SharedEngine) {
    let scenario = (0..200u64)
        .map(Scenario::generate)
        .find(|s| s.faults.is_empty() && s.waves > s.training_waves as u64 + 4)
        .expect("some small seed generates a fault-free scenario with an application phase");
    let store = DataStore::new();
    let config = workload::engine_config(&scenario).with_telemetry(false);
    let stand_up = || {
        let workflow = workload::build_workflow(&scenario, &store).unwrap();
        let engine = SharedEngine::new(
            QodEngine::from_workflow(&workflow, store.clone(), config.clone()).unwrap(),
        );
        let scheduler = Scheduler::new(workflow, store.clone(), Box::new(engine.clone()));
        (engine, scheduler)
    };
    let (engine, mut scheduler) = stand_up();
    for _ in 0..scenario.waves {
        scheduler.run_wave().unwrap();
    }
    let blob = engine.with(QodEngine::export_state);
    drop(scheduler);
    (blob, stand_up().0)
}

#[test]
fn engine_state_damaged_at_every_offset_is_a_typed_error() {
    let (blob, target) = exported_state();
    let pristine = target.with(QodEngine::export_state);
    let import = |bytes: &[u8]| target.with_mut(|e| e.import_state(bytes));

    let check = |what: String, damaged: &[u8]| {
        match import(damaged) {
            Err(CoreError::Durability(
                DurabilityError::Corrupt { .. } | DurabilityError::UnsupportedVersion { .. },
            )) => {}
            other => panic!("{what}: expected a typed durability error, got {other:?}"),
        }
        assert_eq!(
            target.with(QodEngine::export_state),
            pristine,
            "{what}: a rejected import changed the engine"
        );
    };
    for (offset, damaged) in wire::flips(&blob).enumerate() {
        check(format!("flip at {offset}"), &damaged);
    }
    for (keep, damaged) in wire::truncations(&blob) {
        check(format!("truncation to {keep}"), &damaged);
    }
    // A length field claiming 4 GiB of body must be refused on its face,
    // not allocated for.
    let mut huge = blob.clone();
    huge[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
    check("4 GiB body length".into(), &huge);

    // And the undamaged blob still imports.
    import(&blob).unwrap();
    assert_eq!(target.with(QodEngine::export_state), blob);
}

/// Forwards to the system allocator, remembering the largest request this
/// thread made.
struct Metered;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // No destructor is registered for a const-initialised `Cell<usize>`, so
    // this is reachable at any point of a thread's life.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches no allocator
// state.
unsafe impl GlobalAlloc for Metered {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Metered = Metered;

#[test]
fn checkpoint_file_damaged_at_every_offset_is_a_typed_error() {
    let store = DataStore::new();
    for (family, row, qualifier, value) in [
        ("f", "r1", "speed", Value::from(61.5)),
        ("f", "r1", "count", Value::I64(-3)),
        ("f", "r2", "name", Value::from("segment")),
        ("g", "r", "raw", Value::from(vec![0u8, 255, 7])),
    ] {
        store
            .ensure_container(&ContainerRef::family("t", family))
            .unwrap();
        store.put("t", family, row, qualifier, value).unwrap();
    }
    store
        .put("t", "f", "r1", "speed", Value::from(58.0))
        .unwrap();
    let checkpoint = Checkpoint {
        wave: 7,
        clock: store.clock(),
        store: store.export_state(),
        engine: vec![1, 2, 3],
    };
    let dir = std::env::temp_dir().join(format!("smartflux-sfcp-damage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    write_checkpoint(&dir, &checkpoint).unwrap();
    let path = dir.join(CHECKPOINT_FILE);
    let file = std::fs::read(&path).unwrap();

    // What reading `bytes` as the checkpoint gives, and the largest heap
    // request made on the way.
    let read = |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        LARGEST.set(0);
        (read_checkpoint(&dir), LARGEST.get())
    };
    let refused = |what: String, bytes: &[u8]| match read(bytes) {
        (
            Err(DurabilityError::Corrupt { .. } | DurabilityError::UnsupportedVersion { .. }),
            largest,
        ) => largest,
        (other, _) => panic!("{what}: expected a typed durability error, got {other:?}"),
    };
    for (offset, damaged) in wire::flips(&file).enumerate() {
        refused(format!("flip at {offset}"), &damaged);
    }
    refused("empty file".into(), &[]);
    for (keep, damaged) in wire::truncations(&file) {
        refused(format!("truncation to {keep}"), &damaged);
    }

    // The v3 meta frame, "SFCP" | version:u16 | wave:u64 | clock:u64 |
    // len:u64, rebuilt with another version and length.
    const META_LEN: usize = 4 + 2 + 8 + 8 + 8;
    let meta_end = FRAME_HEADER + META_LEN;
    let version = u16::from_le_bytes([file[FRAME_HEADER + 4], file[FRAME_HEADER + 5]]);
    let meta_frame = |version: u16, len: usize| {
        let mut meta = file[FRAME_HEADER..meta_end].to_vec();
        meta[4..6].copy_from_slice(&version.to_le_bytes());
        meta[META_LEN - 8..].copy_from_slice(&(len as u64).to_le_bytes());
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &meta);
        bytes
    };
    assert_eq!(meta_frame(version, file.len()), file[..meta_end]);

    // Damage a CRC cannot see — the store frame was written that way: a
    // cell count of `u32::MAX`, and a frame that ends inside its last value.
    // Both are refused, and a claimed count reserves for no more cells than
    // the bytes behind it could hold (a few times their size, never the
    // count's).
    let store_frame = encode_store_state(&checkpoint.store);
    let reframed = |payload: &[u8]| {
        let len = meta_end + 2 * FRAME_HEADER + payload.len() + checkpoint.engine.len();
        let mut bytes = meta_frame(version, len);
        write_frame(&mut bytes, payload);
        write_frame(&mut bytes, &checkpoint.engine);
        bytes
    };
    assert_eq!(reframed(&store_frame), file);
    // clock | n_tables | "t" | n_families | "f" | n_cells
    let n_cells_at = 8 + 4 + (4 + 1) + 4 + (4 + 1);
    let mut huge = store_frame.clone();
    assert_eq!(huge[n_cells_at..n_cells_at + 4], 3u32.to_le_bytes());
    huge[n_cells_at..n_cells_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    // A length the frames do not end at, or the file does not reach.
    let relength = |len: usize, tail: &[u8]| {
        let mut bytes = meta_frame(version, len);
        bytes.extend_from_slice(&file[meta_end..]);
        bytes.extend_from_slice(tail);
        bytes
    };
    for (what, bytes) in [
        ("cell count of u32::MAX", reframed(&huge)),
        (
            "frame ends inside a value",
            reframed(&store_frame[..store_frame.len() - 2]),
        ),
        ("frames run past the length", relength(file.len() - 1, &[])),
        (
            "frames end before the length",
            relength(file.len() + 1, &[0]),
        ),
        (
            "length past the end of the file",
            relength(file.len() + 1, &[]),
        ),
        ("length of u64::MAX", relength(usize::MAX, &[])),
    ] {
        let largest = refused(what.into(), &bytes);
        assert!(
            largest <= 8 * file.len(),
            "{what}: a {largest}-byte request for a {}-byte file",
            file.len()
        );
    }
    assert!(matches!(
        read(&relength(file.len() + 1, &[])).0,
        Err(DurabilityError::Corrupt { .. })
    ));

    // A file of the format before `len` is refused by version, not read.
    let mut v2 = file[FRAME_HEADER..meta_end - 8].to_vec();
    v2[4..6].copy_from_slice(&2u16.to_le_bytes());
    let mut v2_file = Vec::new();
    write_frame(&mut v2_file, &v2);
    write_frame(&mut v2_file, &store_frame);
    write_frame(&mut v2_file, &checkpoint.engine);
    assert!(matches!(
        read(&v2_file).0,
        Err(DurabilityError::UnsupportedVersion { found: 2 })
    ));

    // Past `len` is the stale tail of the longer checkpoint the file held
    // before (it is overwritten in place, never shrunk), or anything else:
    // nothing there is read.
    let mut longer = checkpoint.clone();
    longer.engine = vec![0xAB; 64];
    write_checkpoint(&dir, &longer).unwrap();
    let stale = [&file[..], &std::fs::read(&path).unwrap()[file.len()..]].concat();
    let mut framed_garbage = file.clone();
    write_frame(&mut framed_garbage, b"not a checkpoint frame");
    let mut tails = vec![
        ("stale tail".to_owned(), stale.clone()),
        (
            "appended garbage".to_owned(),
            [&file[..], &[0xFF; 37]].concat(),
        ),
        ("appended frame".to_owned(), framed_garbage),
    ];
    tails.extend(
        wire::flips(&stale)
            .enumerate()
            .skip(file.len())
            .map(|(offset, bytes)| (format!("tail flip at {offset}"), bytes)),
    );
    for (what, bytes) in tails {
        let (read_back, _) = read(&bytes);
        assert_eq!(read_back.unwrap(), Some(checkpoint.clone()), "{what}");
    }

    // And the undamaged file still reads as what was written.
    assert_eq!(read(&file).0.unwrap(), Some(checkpoint));
    std::fs::remove_dir_all(&dir).unwrap();
}
