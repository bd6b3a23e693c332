//! Criterion benches of the datastore substrate: put/get/scan throughput
//! with and without a registered write observer (the notification bus; the
//! Monitoring fold runs in the write path instead, see `monitor.rs`).
//!
//! `put_lrb_shaped` overwrites the cells of an `lrb`-shaped family (240
//! rows × 3 qualifiers) in turn: `bare` is the store alone, unwatched and
//! unobserved, which builds no event and folds nothing; `owned_closure`
//! adds an `Fn(&WriteEvent)` observer, which is handed an owned copy per
//! write; `bare_handle` is `bare` through a `FamilyHandle` resolved once
//! outside the loop. The tracking-`Monitor` and WAL-capture cases over the
//! same shape are in `monitor.rs`.
//!
//! `read_lrb_shaped` reads that family whole, three numbers a row, the way
//! `lrb`'s `update-positions` does: by `scan` (a `String` key, a `Vec` and
//! three qualifier `String`s per row) and by `for_each_row` in place.
//!
//! `key_order` is the row layout's own account — a sorted vector with a
//! finger (DESIGN.md §11): `get_ascending_1k` reads the 1 000 one-cell rows
//! of a family in key order (every lookup is the row after the previous
//! one), `get_shuffled_1k` the same rows in a fixed random order (every
//! lookup searches); `insert_ascending_10k` fills an empty family with
//! 10 000 rows in key order (appends), `insert_shuffled_10k` in a fixed
//! random order (a `memmove` of half the family per row) — one iteration is
//! the whole pass or fill, and the shuffled cases are where the layout is
//! expected to lose to the `BTreeMap`s it replaced.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use smartflux_datastore::{ContainerRef, DataStore, ScanFilter, Value, WriteEvent};

fn fresh_store() -> DataStore {
    let store = DataStore::new();
    store
        .ensure_container(&ContainerRef::family("t", "f"))
        .expect("fresh store");
    store
}

fn bench_put(c: &mut Criterion) {
    let mut group = c.benchmark_group("put");
    group.bench_function("bare", |b| {
        let store = fresh_store();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            store
                .put("t", "f", "row", "q", Value::from(i as f64))
                .expect("write succeeds")
        });
    });
    group.bench_function("with_observer", |b| {
        let store = fresh_store();
        let count = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&count);
        store.register_observer(Arc::new(move |e: &WriteEvent| {
            // The monitoring path: attribute and accumulate the magnitude.
            let m = match (&e.old, &e.new) {
                (Some(o), Some(n)) => n.abs_diff(o),
                _ => 1.0,
            };
            c2.fetch_add(m as u64, Ordering::Relaxed);
        }));
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            store
                .put("t", "f", "row", "q", Value::from(i as f64))
                .expect("write succeeds")
        });
        black_box(count.load(Ordering::Relaxed));
    });
    group.finish();
}

/// Row keys of an `lrb`-shaped family; with [`LRB_QUALIFIERS`], 720 cells.
fn lrb_rows() -> Vec<String> {
    (0..240).map(|i| format!("x{}-s{i:03}", i % 4)).collect()
}

const LRB_QUALIFIERS: [&str; 3] = ["speed", "count", "toll"];

fn bench_put_lrb_shaped(c: &mut Criterion) {
    let rows = lrb_rows();
    let mut group = c.benchmark_group("put_lrb_shaped");
    for observed in [false, true] {
        let store = fresh_store();
        let seen = Arc::new(AtomicU64::new(0));
        if observed {
            let sink = Arc::clone(&seen);
            store.register_observer(Arc::new(move |e: &WriteEvent| {
                sink.fetch_add(e.timestamp, Ordering::Relaxed);
            }));
        }
        let name = if observed { "owned_closure" } else { "bare" };
        group.bench_function(name, |b| {
            let mut i = 0usize;
            b.iter(|| {
                i += 1;
                store
                    .put(
                        "t",
                        "f",
                        &rows[i % rows.len()],
                        LRB_QUALIFIERS[i % LRB_QUALIFIERS.len()],
                        Value::from(i as f64),
                    )
                    .expect("write succeeds")
            });
        });
        black_box(seen.load(Ordering::Relaxed));
    }
    let store = fresh_store();
    group.bench_function("bare_handle", |b| {
        let family = store.family("t", "f").expect("family exists");
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            family
                .put(
                    &rows[i % rows.len()],
                    LRB_QUALIFIERS[i % LRB_QUALIFIERS.len()],
                    Value::from(i as f64),
                )
                .expect("write succeeds")
        });
    });
    group.finish();
}

fn bench_read_lrb_shaped(c: &mut Criterion) {
    let store = fresh_store();
    for (i, row) in lrb_rows().iter().enumerate() {
        for q in LRB_QUALIFIERS {
            store
                .put("t", "f", row, q, Value::from(i as f64))
                .expect("setup write");
        }
    }
    let mut group = c.benchmark_group("read_lrb_shaped");
    group.bench_function("scan", |b| {
        b.iter(|| {
            let mut sum = 0.0;
            for row in store
                .scan("t", "f", &ScanFilter::all())
                .expect("family exists")
            {
                for q in LRB_QUALIFIERS {
                    sum += row.f64(q).unwrap_or(0.0);
                }
            }
            black_box(sum)
        });
    });
    group.bench_function("for_each_row", |b| {
        let family = store.family("t", "f").expect("family exists");
        b.iter(|| {
            let mut sum = 0.0;
            family
                .for_each_row(|_, row| {
                    for q in LRB_QUALIFIERS {
                        sum += row.f64(q).unwrap_or(0.0);
                    }
                })
                .expect("family exists");
            black_box(sum)
        });
    });
    group.finish();
}

fn bench_get_scan(c: &mut Criterion) {
    let store = fresh_store();
    for i in 0..1000 {
        store
            .put("t", "f", &format!("r{i:05}"), "v", Value::from(i as f64))
            .expect("setup write");
    }
    let mut group = c.benchmark_group("read");
    group.bench_function("get_one", |b| {
        b.iter(|| black_box(store.get("t", "f", "r00500", "v").expect("family exists")));
    });
    for &limit in &[100usize, 1000] {
        group.bench_with_input(BenchmarkId::new("scan", limit), &limit, |b, &l| {
            let filter = ScanFilter::all().with_limit(l);
            b.iter(|| black_box(store.scan("t", "f", &filter).expect("family exists")));
        });
    }
    group.finish();
}

/// `n` row keys in ascending order, and the same keys shuffled by a fixed
/// seed.
fn ordered_and_shuffled_keys(n: usize) -> (Vec<String>, Vec<String>) {
    let ordered: Vec<String> = (0..n).map(|i| format!("r{i:05}")).collect();
    let mut shuffled = ordered.clone();
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..n).rev() {
        seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        shuffled.swap(i, (seed >> 33) as usize % (i + 1));
    }
    (ordered, shuffled)
}

fn bench_key_order(c: &mut Criterion) {
    let mut group = c.benchmark_group("key_order");
    let (ordered, shuffled) = ordered_and_shuffled_keys(1_000);
    let store = fresh_store();
    for (i, row) in ordered.iter().enumerate() {
        store
            .put("t", "f", row, "v", Value::from(i as f64))
            .expect("setup write");
    }
    for (name, keys) in [
        ("get_ascending_1k", &ordered),
        ("get_shuffled_1k", &shuffled),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                for row in keys {
                    black_box(store.get("t", "f", row, "v").expect("family exists"));
                }
            });
        });
    }
    let (ordered, shuffled) = ordered_and_shuffled_keys(10_000);
    for (name, keys) in [
        ("insert_ascending_10k", &ordered),
        ("insert_shuffled_10k", &shuffled),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let store = fresh_store();
                for row in keys {
                    store
                        .put("t", "f", row, "v", Value::from(1.0))
                        .expect("write succeeds");
                }
                black_box(store.clock())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_put,
    bench_put_lrb_shaped,
    bench_read_lrb_shaped,
    bench_get_scan,
    bench_key_order
);
criterion_main!(benches);
