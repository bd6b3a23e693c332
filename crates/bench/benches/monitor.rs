//! Criterion bench for the Monitoring hot path: the store folding one
//! write into the watched containers, under the write guard the write
//! already holds. Attribution is the written family's slot, so the
//! per-write cost stays flat as the watch list grows.
//!
//! `monitor_change_sets` is the same write with 0, 1 and 2 change sets on
//! the written container (what a source, and an intermediate container
//! between two QoD steps, carry in the engine), rotating over 1 024 cells:
//! the per-write price of write-driven impact tracking.
//!
//! `put_lrb_shaped` is the write path per tracked cell, on the family shape
//! of `benches/datastore.rs` (240 rows × 3 qualifiers, each overwritten in
//! turn; `bare` and `bare_handle` there are the same writes unwatched):
//! with a tracking `Monitor`, and with the `Monitor` plus the durability
//! capture, which reads the borrowed `WriteRef` in place once the guard is
//! gone, each by string-addressed `put` and through a `FamilyHandle`
//! resolved once per wave (`_handle`). Every 720th write ends a wave — the
//! tracker's mark moves and the captured batch is committed
//! (`sync = never`) — so the change set and the capture buffer cycle as
//! they do in the engine.
//!
//! `monitor_arrival_order` is a tracked write through a `FamilyHandle`
//! over the same 720 cells: `in_order` writes every wave in the order the
//! cells were first written (each write finds its row one on from the
//! previous one's, and its change-set slot the slot after the previous
//! one's, by string comparisons), `shuffled` in a fixed random order (each
//! row is searched for, each slot found by joining and hashing its key,
//! after the comparisons missed).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use smartflux::{DurabilityOptions, Monitor, SyncPolicy};
use smartflux_datastore::{ContainerRef, DataStore, Value};
use smartflux_durability::DurabilityManager;

fn bench_on_write(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor_on_write");
    for &watched in &[4usize, 64, 512] {
        let store = DataStore::new();
        let monitor = Monitor::new();
        for i in 0..watched {
            let fam = ContainerRef::family("t", format!("f{i}"));
            store.ensure_container(&fam).expect("fresh store");
            monitor.watch(fam);
        }
        monitor.attach(&store);
        group.bench_with_input(BenchmarkId::new("watched", watched), &watched, |b, _| {
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                store
                    .put("t", "f0", "r", "q", Value::from(i as f64))
                    .expect("watched family exists");
                black_box(i)
            });
        });
        let target = ContainerRef::family("t", "f0");
        black_box(monitor.total_writes(&target));
    }
    group.finish();
}

fn bench_change_sets(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor_change_sets");
    for &trackers in &[0usize, 1, 2] {
        let store = DataStore::new();
        let fam = ContainerRef::family("t", "f");
        store.ensure_container(&fam).expect("fresh store");
        let monitor = Monitor::new();
        monitor.watch(fam.clone());
        for _ in 0..trackers {
            monitor.track(fam.clone());
        }
        monitor.attach(&store);
        let rows: Vec<String> = (0..1024).map(|i| format!("x0-s{i:04}")).collect();
        group.bench_with_input(BenchmarkId::new("trackers", trackers), &trackers, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                i += 1;
                store
                    .put(
                        "t",
                        "f",
                        &rows[i % rows.len()],
                        "toll",
                        Value::from(i as f64),
                    )
                    .expect("watched family exists");
                black_box(i)
            });
        });
    }
    group.finish();
}

fn bench_put_lrb_shaped(c: &mut Criterion) {
    const QUALIFIERS: [&str; 3] = ["speed", "count", "toll"];
    let rows: Vec<String> = (0..240).map(|i| format!("x{}-s{i:03}", i % 4)).collect();
    let cells = rows.len() * QUALIFIERS.len();
    let mut group = c.benchmark_group("put_lrb_shaped");
    for (with_wal, by_handle) in [(false, false), (false, true), (true, false), (true, true)] {
        let store = DataStore::new();
        let fam = ContainerRef::family("t", "f");
        store.ensure_container(&fam).expect("fresh store");
        let monitor = Monitor::new();
        let tracker = monitor.track(fam);
        monitor.attach(&store);
        let dir = std::env::temp_dir().join(format!("smartflux-bench-put-{}", std::process::id()));
        let wal = with_wal.then(|| {
            let _ = std::fs::remove_dir_all(&dir);
            let wal =
                DurabilityManager::open(DurabilityOptions::new(&dir).with_sync(SyncPolicy::Never))
                    .expect("scratch directory is writable");
            wal.attach(&store);
            wal
        });
        let name = match (with_wal, by_handle) {
            (false, false) => "monitor",
            (false, true) => "monitor_handle",
            (true, false) => "monitor_and_wal",
            (true, true) => "monitor_and_wal_handle",
        };
        group.bench_function(name, |b| {
            let mut family = store.family("t", "f").expect("watched family exists");
            let mut i = 0usize;
            b.iter(|| {
                i += 1;
                let (row, qualifier) = (&rows[i % rows.len()], QUALIFIERS[i % QUALIFIERS.len()]);
                let value = Value::from(i as f64);
                if by_handle {
                    family.put(row, qualifier, value)
                } else {
                    store.put("t", "f", row, qualifier, value)
                }
                .expect("watched family exists");
                if i.is_multiple_of(cells) {
                    monitor.mark(tracker);
                    if let Some(wal) = &wal {
                        let wave = (i / cells) as u64;
                        wal.commit_wave(wave, store.clock())
                            .expect("commit succeeds");
                        // Bound the log (~2 MiB) without giving up the
                        // grown capture buffer more than once in 64 waves.
                        if wave.is_multiple_of(64) {
                            wal.reset_wal().expect("truncate succeeds");
                        }
                    }
                    // A step resolves its handles anew every wave.
                    family = store.family("t", "f").expect("watched family exists");
                }
                black_box(i)
            });
        });
        if with_wal {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    group.finish();
}

fn bench_arrival_order(c: &mut Criterion) {
    const QUALIFIERS: [&str; 3] = ["speed", "count", "toll"];
    let mut group = c.benchmark_group("monitor_arrival_order");
    let in_order: Vec<(String, &str)> = (0..240)
        .flat_map(|row| QUALIFIERS.map(|q| (format!("x{}-s{:02}", row / 60, row % 60), q)))
        .collect();
    let mut shuffled = in_order.clone();
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..shuffled.len()).rev() {
        seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        shuffled.swap(i, (seed >> 33) as usize % (i + 1));
    }
    for (name, wave) in [("in_order", &in_order), ("shuffled", &shuffled)] {
        let store = DataStore::new();
        let fam = ContainerRef::family("t", "f");
        store.ensure_container(&fam).expect("fresh store");
        let monitor = Monitor::new();
        let tracker = monitor.track(fam);
        monitor.attach(&store);
        let family = store.family("t", "f").expect("watched family exists");
        // Both cases intern the cells in the same (first-write) order.
        for (row, qualifier) in &in_order {
            family
                .put(row, qualifier, Value::from(1.0))
                .expect("watched family exists");
        }
        group.bench_function(name, |b| {
            let mut i = 0usize;
            b.iter(|| {
                let (row, qualifier) = &wave[i % wave.len()];
                family
                    .put(row, qualifier, Value::from(i as f64))
                    .expect("watched family exists");
                i += 1;
                if i.is_multiple_of(wave.len()) {
                    monitor.mark(tracker);
                }
                black_box(i)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_on_write,
    bench_change_sets,
    bench_put_lrb_shaped,
    bench_arrival_order
);
criterion_main!(benches);
