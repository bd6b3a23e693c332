//! Criterion bench for the Monitoring hot path: attributing one store
//! write to the watched containers. The (table, family) index keeps the
//! per-write cost flat as the watch list grows; before it, attribution
//! scanned every watched container on every mutation.
//!
//! `monitor_change_sets` is the same write with 0, 1 and 2 change sets on
//! the written container (what a source, and an intermediate container
//! between two QoD steps, carry in the engine), rotating over 1 024 cells:
//! the per-write price of write-driven impact tracking.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use smartflux::Monitor;
use smartflux_datastore::{ContainerRef, DataStore, Value};

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

criterion_group!(benches, bench_on_write, bench_change_sets);
criterion_main!(benches);
