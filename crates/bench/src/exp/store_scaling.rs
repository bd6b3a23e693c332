//! Store-scaling micro-bench: throughput of the sharded store by thread
//! count.
//!
//! Measures aggregate store throughput (operations per second) at 1, 2, 4
//! and 8 threads over four workloads: pure reads, pure writes, a 80/20
//! read/write mix, and writers beside long-running scanners. A fixed total
//! operation count is split across the threads, so the number is
//! end-to-end wall clock for the same work at every level.
//!
//! Throughput only scales with real hardware parallelism: on a host with
//! fewer cores than client threads the threads serialize on the CPU. The
//! bench therefore also records each run's shard-contention counters — the
//! number of lock acquisitions that found the lock held — which show how
//! often threads met on a shard whatever the host.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use smartflux_datastore::{DataStore, ScanFilter, Value};

use crate::{heading, write_csv};

/// One measured configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreScalingRow {
    /// Workload label (`read`, `mixed`, `write`, `scanwrite`).
    pub workload: String,
    /// Concurrent client threads.
    pub threads: usize,
    /// Aggregate operations per second (best of the repetitions).
    pub ops_per_sec: f64,
    /// Read-guard acquisitions that found the lock held (same rep).
    pub read_contention: u64,
    /// Write-guard acquisitions that found the lock held (same rep).
    pub write_contention: u64,
}

/// Total operations per measurement, split evenly across the threads.
const TOTAL_OPS: usize = 240_000;
const TABLE: &str = "bench";
const FAMILIES: [&str; 8] = ["f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7"];
const ROWS: usize = 32;
const QUALS: usize = 4;

/// splitmix64: a deterministic per-thread operation stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Builds a store with every cell of the keyspace pre-populated, so reads
/// always hit.
fn build_store() -> DataStore {
    let store = DataStore::new();
    // tidy:allow(panic): bench harness aborts loudly on setup failure
    store.create_table(TABLE).expect("fresh table");
    for family in FAMILIES {
        // tidy:allow(panic): bench harness aborts loudly on setup failure
        store.create_family(TABLE, family).expect("fresh family");
        for r in 0..ROWS {
            for q in 0..QUALS {
                store
                    .put(
                        TABLE,
                        family,
                        &format!("r{r}"),
                        &format!("q{q}"),
                        Value::I64(0),
                    )
                    // tidy:allow(panic): bench harness aborts loudly on setup failure
                    .expect("seed put");
            }
        }
    }
    store
}

/// Runs `TOTAL_OPS` operations split across `threads` clients and returns
/// `(aggregate ops per second, read contention, write contention)`.
/// `write_percent` sets the put share of each thread's stream; the rest
/// are gets.
fn run_once(threads: usize, write_percent: u64) -> (f64, u64, u64) {
    let store = build_store();
    let populated = store.shard_stats();
    let per_thread = TOTAL_OPS / threads;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let store = store.clone();
            scope.spawn(move || {
                let mut rng = Rng((t as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
                for _ in 0..per_thread {
                    let family = FAMILIES[(rng.next() % FAMILIES.len() as u64) as usize];
                    let row = format!("r{}", rng.next() % ROWS as u64);
                    let qual = format!("q{}", rng.next() % QUALS as u64);
                    if rng.next() % 100 < write_percent {
                        let v = rng.next() as i64;
                        store
                            .put(TABLE, family, &row, &qual, Value::I64(v))
                            // tidy:allow(panic): bench harness aborts loudly on a failed op
                            .expect("bench put");
                    } else {
                        store
                            .get(TABLE, family, &row, &qual)
                            // tidy:allow(panic): bench harness aborts loudly on a failed op
                            .expect("bench get");
                    }
                }
            });
        }
    });
    let ops_per_sec = (per_thread * threads) as f64 / start.elapsed().as_secs_f64();
    let stats = store.shard_stats();
    (
        ops_per_sec,
        stats.read_contention - populated.read_contention,
        stats.write_contention - populated.write_contention,
    )
}

/// Wall-clock budget of one `scanwrite` repetition.
const SCAN_WRITE_BUDGET: Duration = Duration::from_millis(200);

/// Rows in each scanner family: scans are long enough that a scanner
/// preempted mid-scan is a realistic event, which is exactly when a writer
/// sharing its lock would wait out a whole scheduling round.
const SCAN_ROWS: usize = 384;

/// The `scanwrite` workload: half the threads scan their own family in a
/// tight loop (long-lived read guards — the shape of a workflow step
/// reading its input), the other half put into *disjoint* families (a
/// sibling step writing its output). Reported throughput is the writers'
/// aggregate puts per second; a put waits out a scanner's read guard only
/// when the two families share a shard. With one thread there are no
/// scanners and the measurement reduces to the pure single-writer
/// baseline.
fn run_scan_write(threads: usize) -> (f64, u64, u64) {
    let store = build_store();
    let scanners = threads / 2;
    let writers = threads - scanners;
    // Deepen the scanner families so a full scan is substantial work.
    for s in 0..scanners {
        let family = FAMILIES[s % FAMILIES.len()];
        for r in ROWS..SCAN_ROWS {
            for q in 0..QUALS {
                store
                    .put(
                        TABLE,
                        family,
                        &format!("r{r}"),
                        &format!("q{q}"),
                        Value::I64(0),
                    )
                    // tidy:allow(panic): bench harness aborts loudly on setup failure
                    .expect("seed put");
            }
        }
    }
    let populated = store.shard_stats();
    let stop = AtomicBool::new(false);
    let puts = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for s in 0..scanners {
            let store = store.clone();
            let stop = &stop;
            scope.spawn(move || {
                let family = FAMILIES[s % FAMILIES.len()];
                while !stop.load(Ordering::Relaxed) {
                    store
                        .scan(TABLE, family, &ScanFilter::all())
                        // tidy:allow(panic): bench harness aborts loudly on a failed op
                        .expect("bench scan");
                }
            });
        }
        for w in 0..writers {
            let store = store.clone();
            let puts = &puts;
            let stop = &stop;
            scope.spawn(move || {
                // Writer families are disjoint from scanner families.
                let family = FAMILIES[(scanners + w) % FAMILIES.len()];
                let mut rng = Rng((w as u64 + 1).wrapping_mul(0xE703_7ED1_A0B4_28DB));
                let mut local = 0u64;
                let deadline = Instant::now() + SCAN_WRITE_BUDGET;
                while Instant::now() < deadline {
                    for _ in 0..64 {
                        let row = format!("r{}", rng.next() % ROWS as u64);
                        let qual = format!("q{}", rng.next() % QUALS as u64);
                        let v = rng.next() as i64;
                        store
                            .put(TABLE, family, &row, &qual, Value::I64(v))
                            // tidy:allow(panic): bench harness aborts loudly on a failed op
                            .expect("bench put");
                        local += 1;
                    }
                }
                puts.fetch_add(local, Ordering::Relaxed);
                // The last writer to finish releases the scanners.
                stop.store(true, Ordering::Relaxed);
            });
        }
    });
    let ops_per_sec = puts.load(Ordering::Relaxed) as f64 / SCAN_WRITE_BUDGET.as_secs_f64();
    let stats = store.shard_stats();
    (
        ops_per_sec,
        stats.read_contention - populated.read_contention,
        stats.write_contention - populated.write_contention,
    )
}

/// Measures every workload × thread count combination.
///
/// Each cell runs `reps` times and the fastest repetition is kept: the
/// operation stream is deterministic work, so the maximum throughput is
/// the measurement and everything below it is scheduler/allocator noise.
#[must_use]
pub fn measure(reps: u32) -> Vec<StoreScalingRow> {
    type Runner = fn(usize) -> (f64, u64, u64);
    let workloads: [(&str, Runner); 4] = [
        ("read", |t| run_once(t, 0)),
        ("mixed", |t| run_once(t, 20)),
        ("write", |t| run_once(t, 100)),
        ("scanwrite", run_scan_write),
    ];
    let mut rows = Vec::new();
    for (workload, runner) in workloads {
        for threads in [1usize, 2, 4, 8] {
            let mut best = (0.0f64, 0, 0);
            for _ in 0..reps.max(1) {
                let sample = runner(threads);
                if sample.0 > best.0 {
                    best = sample;
                }
            }
            rows.push(StoreScalingRow {
                workload: workload.to_owned(),
                threads,
                ops_per_sec: best.0,
                read_contention: best.1,
                write_contention: best.2,
            });
        }
    }
    rows
}

/// Runs the micro-bench and prints + persists the table.
pub fn run() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    heading("Store scaling — throughput by thread count");
    println!("host parallelism: {cores} core(s)\n");
    let rows = measure(5);
    let mut csv = Vec::new();
    for r in &rows {
        println!(
            "  {:<9} {:>2} threads  {:>12.0} ops/s  contention r/w {:>8}/{:<8}",
            r.workload, r.threads, r.ops_per_sec, r.read_contention, r.write_contention
        );
        csv.push(format!(
            "{},{},{:.0},{},{}",
            r.workload, r.threads, r.ops_per_sec, r.read_contention, r.write_contention
        ));
    }
    write_csv(
        "store_scaling.csv",
        "workload,threads,ops_per_sec,read_contention,write_contention",
        &csv,
    );
}
