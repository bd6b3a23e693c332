//! The probe pass: record a workload's real inputs — the write batch of
//! every wave, the knowledge base, impact vectors, wire frames — and replay
//! them into one layer's public functions at a time, timing only those.
//!
//! Probes run on copies, after the measured phases, so they disturb
//! nothing. Each prints its work count, busy time and failures.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use smartflux::eval::WorkloadFactory;
use smartflux::{
    recover_store, DurabilityOptions, KnowledgeBase, ModelKind, Monitor, Predictor, SyncPolicy,
};
use smartflux_datastore::{
    ContainerRef, DataStore, ObserverHandle, OpKind, OpObserverHandle, ScanFilter, WriteEvent,
    WriteKind,
};
use smartflux_durability::DurabilityManager;
use smartflux_ml::{Classifier, Dataset, RandomForest};
use smartflux_net::wire::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use smartflux_net::{ContainerWrite, WaveReport};
use smartflux_wms::{Scheduler, SynchronousPolicy};

use crate::common::{BenchResult, Context};
use crate::metrics::Measured;
use crate::stats::median;
use crate::workloads::Workload;

/// Prints one probe's accounting line.
pub fn account(probe: &str, work: u64, busy: Duration, failures: u64) {
    eprintln!(
        "  probe {probe:<28} work {work:>8}  busy {:>9.3} ms  failures {failures}",
        busy.as_secs_f64() * 1e3
    );
}

/// Runs `f` `reps` times after one warm-up call; returns each call's ns.
fn time_each(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    f();
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .collect()
}

/// Accounts for a probe that timed `times_ns.len()` calls one by one and
/// records their median, in units of `per` ns, as `metric`.
fn put_median(m: &mut Measured, metric: &'static str, times_ns: &[f64], per: f64, failures: u64) {
    let busy = Duration::from_nanos(times_ns.iter().sum::<f64>() as u64);
    account(metric, times_ns.len() as u64, busy, failures);
    m.put(metric, median(times_ns) / per, times_ns.len() as u64);
}

/// The writes and operation counts of a stretch of waves.
#[derive(Debug, Default)]
pub struct Recording {
    /// One batch per recorded wave, in write order.
    pub batches: Vec<Vec<WriteEvent>>,
    pub reads: u64,
    pub writes: u64,
}

impl Recording {
    #[must_use]
    pub fn total_writes(&self) -> u64 {
        self.batches.iter().map(|b| b.len() as u64).sum()
    }
}

/// Records a store's traffic: a `WriteObserver` keeps every write, an
/// `OpObserver` counts reads and writes.
pub struct Recorder {
    current: Arc<Mutex<Vec<WriteEvent>>>,
    batches: Vec<Vec<WriteEvent>>,
    reads: Arc<AtomicU64>,
    writes: Arc<AtomicU64>,
    handles: (ObserverHandle, OpObserverHandle),
}

impl Recorder {
    #[must_use]
    pub fn attach(store: &DataStore) -> Self {
        let current = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&current);
        let write_handle = store.register_observer(Arc::new(move |event: &WriteEvent| {
            sink.lock()
                .expect("recorder lock is never poisoned: pushes cannot panic")
                .push(event.clone());
        }));
        // Statistics only, published by nothing: relaxed is enough.
        let reads = Arc::new(AtomicU64::new(0));
        let writes = Arc::new(AtomicU64::new(0));
        let (r, w) = (Arc::clone(&reads), Arc::clone(&writes));
        let op_handle = store.register_op_observer(Arc::new(move |op: OpKind, _: Duration| {
            if op.is_write() {
                w.fetch_add(1, Ordering::Relaxed);
            } else {
                r.fetch_add(1, Ordering::Relaxed);
            }
        }));
        Self {
            current,
            batches: Vec::new(),
            reads,
            writes,
            handles: (write_handle, op_handle),
        }
    }

    /// Closes the batch of the wave that just completed.
    pub fn end_wave(&mut self) {
        let batch = std::mem::take(
            &mut *self
                .current
                .lock()
                .expect("recorder lock is never poisoned: pushes cannot panic"),
        );
        self.batches.push(batch);
    }

    #[must_use]
    pub fn detach(self, store: &DataStore) -> Recording {
        store.unregister_observer(self.handles.0);
        store.unregister_op_observer(self.handles.1);
        Recording {
            batches: self.batches,
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }
}

/// Applies one recorded write to `store`; returns whether it failed.
fn replay(store: &DataStore, e: &WriteEvent) -> bool {
    match (e.kind, &e.new) {
        (WriteKind::Put, Some(v)) => store
            .put(&e.table, &e.family, &e.row, &e.qualifier, v.clone())
            .is_err(),
        _ => store
            .delete(&e.table, &e.family, &e.row, &e.qualifier)
            .is_err(),
    }
}

/// Replays every batch; returns `(busy, failures)`.
fn replay_all(store: &DataStore, rec: &Recording) -> (Duration, u64) {
    let start = Instant::now();
    let mut failures = 0;
    for e in rec.batches.iter().flatten() {
        failures += u64::from(replay(store, e));
    }
    (start.elapsed(), failures)
}

/// A detached copy of `live` without observers.
fn copy_of(live: &DataStore) -> BenchResult<DataStore> {
    DataStore::from_state(live.export_state()).context("copy store for probing")
}

/// The containers the engine monitors for `workload`: inputs and outputs
/// of every bounded step.
#[must_use]
pub fn watched_containers(workload: &Workload, seed: u64) -> Vec<ContainerRef> {
    let wf = workload.factory(seed, false).build(&DataStore::new());
    let mut watched: Vec<ContainerRef> = Vec::new();
    for id in wf.qod_steps() {
        let info = wf.info(id);
        for c in info.inputs().iter().chain(info.outputs()) {
            if !watched.contains(c) {
                watched.push(c.clone());
            }
        }
    }
    watched
}

/// `datastore.*`: put/get per recorded write, scan/snapshot/diff of the
/// largest watched container across one recorded wave, a full export.
pub fn datastore(
    rec: &Recording,
    live: &DataStore,
    watched: &[ContainerRef],
    waves: u64,
    m: &mut Measured,
) -> BenchResult<()> {
    let n = rec.total_writes();
    let store = copy_of(live)?;
    let _ = replay_all(&store, rec); // warm-up
    let (busy, failures) = replay_all(&store, rec);
    account("datastore.put", n, busy, failures);
    m.put(
        "datastore.put_ns",
        busy.as_nanos() as f64 / n.max(1) as f64,
        n,
    );

    let start = Instant::now();
    let mut misses = 0u64;
    for e in rec.batches.iter().flatten() {
        match store.get(&e.table, &e.family, &e.row, &e.qualifier) {
            Ok(v) => {
                std::hint::black_box(v);
            }
            Err(_) => misses += 1,
        }
    }
    let busy = start.elapsed();
    account("datastore.get", n, busy, misses);
    m.put(
        "datastore.get_ns",
        busy.as_nanos() as f64 / n.max(1) as f64,
        n,
    );

    let largest = watched
        .iter()
        .max_by_key(|c| store.cell_count(c).unwrap_or(0))
        .ok_or("workload watches no container")?;
    let reps = 50;
    let scans = time_each(reps, || {
        std::hint::black_box(
            store
                .scan(largest.table(), largest.family_name(), &ScanFilter::all())
                .map(|rows| rows.len())
                .unwrap_or(0),
        );
    });
    put_median(m, "datastore.scan_us", &scans, 1e3, 0);

    let snaps = time_each(reps, || {
        std::hint::black_box(store.snapshot(largest).map(|s| s.len()).unwrap_or(0));
    });
    put_median(m, "datastore.snapshot_us", &snaps, 1e3, 0);

    // Consecutive-wave snapshots: what the engine diffs every wave.
    let before = store.snapshot(largest).context("snapshot")?;
    if let Some(batch) = rec.batches.last() {
        for e in batch {
            replay(&store, e);
        }
    }
    let after = store.snapshot(largest).context("snapshot")?;
    let diffs = time_each(reps, || {
        std::hint::black_box(after.diff(&before).modified_count());
    });
    put_median(m, "datastore.diff_us", &diffs, 1e3, 0);

    let exports = time_each(10, || {
        std::hint::black_box(live.export_state().tables.len());
    });
    put_median(m, "datastore.export_state_ms", &exports, 1e6, 0);

    let cells: usize = live
        .export_state()
        .tables
        .iter()
        .flat_map(|t| &t.families)
        .map(|f| f.cells.len())
        .sum();
    m.put("datastore.cells", cells as f64, 1);
    m.put(
        "datastore.writes_per_wave",
        rec.writes as f64 / waves.max(1) as f64,
        waves,
    );
    m.put(
        "datastore.reads_per_wave",
        rec.reads as f64 / waves.max(1) as f64,
        waves,
    );
    m.put(
        "datastore.shard_write_contention",
        live.shard_stats().write_contention as f64,
        1,
    );
    Ok(())
}

/// `core.observer_ns_per_write`: the recorded writes into a copy with a
/// watching `Monitor` attached, minus the same writes into a copy without.
pub fn core_observer(
    rec: &Recording,
    live: &DataStore,
    watched: &[ContainerRef],
    m: &mut Measured,
) -> BenchResult<()> {
    let n = rec.total_writes();
    let bare = copy_of(live)?;
    let observed = copy_of(live)?;
    let monitor = Monitor::new();
    for c in watched {
        monitor.watch(c.clone());
    }
    let _handle = monitor.attach(&observed);
    for store in [&bare, &observed] {
        let _ = replay_all(store, rec); // warm-up
    }
    // Interleaved repetitions, best of each: the difference of two noisy
    // totals needs both sides measured under the same conditions.
    let mut best = (Duration::MAX, Duration::MAX);
    let mut failures = 0;
    for _ in 0..5 {
        let (b, f1) = replay_all(&bare, rec);
        let (o, f2) = replay_all(&observed, rec);
        best = (best.0.min(b), best.1.min(o));
        failures += f1 + f2;
    }
    account("core.observer", n * 10, best.0 + best.1, failures);
    let extra = best.1.as_nanos() as f64 - best.0.as_nanos() as f64;
    m.put("core.observer_ns_per_write", extra / n.max(1) as f64, n);
    Ok(())
}

/// `core.train_ms`, `ml.predict_all_ns`, `ml.fit_ms`, `ml.forest_nodes`:
/// the harvested knowledge base through `Predictor::train`, the recorded
/// impact vectors through `Predictor::predict_all`, and the same per-label
/// forests fitted through the `ml` crate alone.
pub fn model(
    workload: &Workload,
    seed: u64,
    kb: &KnowledgeBase,
    impacts: &[Vec<f64>],
    m: &mut Measured,
) -> BenchResult<()> {
    let kind = workload.engine_config(seed).model;
    let mut predictor = Predictor::new(kind.clone(), seed);
    let start = Instant::now();
    let trained = predictor.train(kb);
    let busy = start.elapsed();
    account(
        "core.train",
        kb.len() as u64,
        busy,
        u64::from(trained.is_err()),
    );
    trained.context("Predictor::train on the harvested knowledge base")?;
    m.put("core.train_ms", busy.as_secs_f64() * 1e3, 1);
    m.put("core.kb_rows", kb.len() as f64, 1);

    let mut failures = 0u64;
    let rounds = (20_000 / impacts.len().max(1)).max(1);
    for v in impacts.iter().take(100) {
        failures += u64::from(predictor.predict_all(v).is_err()); // warm-up
    }
    let start = Instant::now();
    for _ in 0..rounds {
        for v in impacts {
            match predictor.predict_all(v) {
                Ok(d) => {
                    std::hint::black_box(d);
                }
                Err(_) => failures += 1,
            }
        }
    }
    let busy = start.elapsed();
    let calls = (rounds * impacts.len()) as u64;
    account("ml.predict_all", calls, busy, failures);
    m.put(
        "ml.predict_all_ns",
        busy.as_nanos() as f64 / calls.max(1) as f64,
        calls,
    );

    let ModelKind::RandomForest {
        trees,
        max_depth,
        threshold,
    } = kind
    else {
        return Err("every workload trains a random forest".into());
    };
    // One forest per bounded step over that step's own impact, as the
    // predictor's default feature mode builds them.
    let labels = kb.step_names().len();
    let start = Instant::now();
    let mut nodes = 0usize;
    let mut failures = 0u64;
    for j in 0..labels {
        let x: Vec<Vec<f64>> = kb.rows().iter().map(|r| vec![r.impacts[j]]).collect();
        let y: Vec<bool> = kb.rows().iter().map(|r| r.must_execute[j]).collect();
        let data = Dataset::new(x, y).context("per-label dataset")?;
        let mut forest = RandomForest::new(trees)
            .with_max_depth(max_depth)
            .with_threshold(threshold)
            .with_seed(seed.wrapping_add(j as u64));
        failures += u64::from(forest.fit(&data).is_err());
        nodes += forest.arena().n_nodes();
    }
    let busy = start.elapsed();
    account("ml.fit", labels as u64, busy, failures);
    m.put("ml.fit_ms", busy.as_secs_f64() * 1e3, labels as u64);
    m.put("ml.forest_nodes", nodes as f64, labels as u64);
    Ok(())
}

/// `wms.sync_wave_us`: the same workflow under `SynchronousPolicy` — steps
/// and scheduling, no engine.
pub fn sync_wave(
    workload: &Workload,
    seed: u64,
    budget_s: f64,
    m: &mut Measured,
) -> BenchResult<()> {
    let store = DataStore::new();
    let workflow = workload.factory(seed, false).build(&store);
    let mut scheduler = Scheduler::new(workflow, store, Box::new(SynchronousPolicy));
    let mut failures = 0u64;
    for _ in 0..20 {
        failures += u64::from(scheduler.run_wave().is_err());
    }
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < 500 && start.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        failures += u64::from(scheduler.run_wave().is_err());
        times.push(t.elapsed().as_nanos() as f64);
    }
    account(
        "wms.sync_wave",
        times.len() as u64,
        start.elapsed(),
        failures,
    );
    m.put("wms.sync_wave_us", median(&times) / 1e3, times.len() as u64);
    Ok(())
}

/// `durability.commit_us`, `commit_fsync_us`, `wal_bytes_per_wave`: the
/// recorded batches through `DurabilityManager::attach` + `commit_wave`,
/// without fsync (as the host runs) and with.
pub fn durability_commit(
    rec: &Recording,
    live: &DataStore,
    dir: &Path,
    m: &mut Measured,
) -> BenchResult<()> {
    for (sync, metric, sub) in [
        (SyncPolicy::Never, "durability.commit_us", "wal-never"),
        (
            SyncPolicy::Always,
            "durability.commit_fsync_us",
            "wal-always",
        ),
    ] {
        let store = copy_of(live)?;
        let manager =
            DurabilityManager::open(DurabilityOptions::new(dir.join(sub)).with_sync(sync))
                .context("open probe WAL")?;
        let _handle = manager.attach(&store);
        // With fsync a handful of commits says enough; each waits for the disk.
        let batches: Vec<&Vec<WriteEvent>> = match sync {
            SyncPolicy::Always => rec.batches.iter().take(20).collect(),
            _ => rec.batches.iter().collect(),
        };
        let mut times = Vec::new();
        let mut failures = 0u64;
        let mut busy = Duration::ZERO;
        for (i, batch) in batches.iter().enumerate() {
            for e in batch.iter() {
                failures += u64::from(replay(&store, e));
            }
            let start = Instant::now();
            failures += u64::from(manager.commit_wave(i as u64 + 1, store.clock()).is_err());
            let took = start.elapsed();
            busy += took;
            times.push(took.as_nanos() as f64);
        }
        account(metric, times.len() as u64, busy, failures);
        m.put(metric, median(&times) / 1e3, times.len() as u64);
        if sync == SyncPolicy::Never {
            let bytes = manager.wal_len().context("WAL length")?;
            m.put(
                "durability.wal_bytes_per_wave",
                bytes as f64 / times.len().max(1) as f64,
                times.len() as u64,
            );
        }
    }
    Ok(())
}

/// `durability.recover_store_ms`: `recover_store` over a durability
/// directory a session left behind (checkpoint plus WAL tail).
pub fn recover(dir: &Path, m: &mut Measured) {
    let mut failures = 0u64;
    let times = time_each(5, || {
        failures += u64::from(recover_store(dir).is_err());
    });
    put_median(m, "durability.recover_store_ms", &times, 1e6, failures);
}

/// `net.encode_ns`, `net.decode_ns`, `net.frame_bytes_per_wave`: the
/// workload's `SubmitWave` request and its `WaveReport` response through
/// the wire codec, both directions.
pub fn codec(session: u64, writes: Vec<ContainerWrite>, report: WaveReport, m: &mut Measured) {
    let request = Request::SubmitWave {
        session,
        writes,
        run_wave: true,
    };
    let response = Response::WaveResult(report);
    let request_bytes = encode_request(&request);
    let response_bytes = encode_response(&response);
    let reps = 2000;
    let mut failures = 0u64;
    let encode = time_each(reps, || {
        std::hint::black_box(encode_request(&request).len() + encode_response(&response).len());
    });
    let decode = time_each(reps, || {
        failures += u64::from(decode_request(&request_bytes).is_err());
        failures += u64::from(decode_response(&response_bytes).is_err());
    });
    account(
        "net.codec",
        reps as u64 * 4,
        Duration::from_nanos((encode.iter().sum::<f64>() + decode.iter().sum::<f64>()) as u64),
        failures,
    );
    m.put("net.encode_ns", median(&encode), reps as u64);
    m.put("net.decode_ns", median(&decode), reps as u64);
    // Payloads plus the 8-byte `len|crc` envelope of each frame.
    m.put(
        "net.frame_bytes_per_wave",
        (request_bytes.len() + response_bytes.len() + 16) as f64,
        1,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartflux_datastore::Value;

    fn store_with(container: &ContainerRef) -> DataStore {
        let store = DataStore::new();
        store.ensure_container(container).unwrap();
        store
    }

    #[test]
    fn recorder_keeps_batches_and_counts_and_detaches() {
        let c = ContainerRef::family("t", "f");
        let store = store_with(&c);
        let mut recorder = Recorder::attach(&store);
        store.put("t", "f", "a", "v", Value::from(1.0)).unwrap();
        store.put("t", "f", "b", "v", Value::from(2.0)).unwrap();
        let _ = store.get("t", "f", "a", "v");
        recorder.end_wave();
        store.delete("t", "f", "a", "v").unwrap();
        recorder.end_wave();
        let rec = recorder.detach(&store);
        assert_eq!(
            rec.batches.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![2, 1]
        );
        assert_eq!((rec.writes, rec.reads), (3, 1));
        // Detached: nothing recorded, and the store's clock equals its writes.
        store.put("t", "f", "c", "v", Value::from(3.0)).unwrap();
        assert_eq!(store.clock(), 4);

        // A replay reproduces the recorded store.
        let copy = store_with(&c);
        let (_, failures) = replay_all(&copy, &rec);
        assert_eq!(failures, 0);
        assert_eq!(copy.cell_count(&c).unwrap(), 1);
    }

    #[test]
    fn probes_fill_their_metrics_on_a_small_recording() {
        let c = ContainerRef::family("t", "f");
        let store = store_with(&c);
        let mut recorder = Recorder::attach(&store);
        for wave in 0..3 {
            for i in 0..8 {
                store
                    .put(
                        "t",
                        "f",
                        &format!("r{i}"),
                        "v",
                        Value::from(f64::from(wave * 8 + i)),
                    )
                    .unwrap();
            }
            recorder.end_wave();
        }
        let rec = recorder.detach(&store);
        let mut m = Measured::default();
        datastore(&rec, &store, std::slice::from_ref(&c), 3, &mut m).unwrap();
        core_observer(&rec, &store, std::slice::from_ref(&c), &mut m).unwrap();
        assert_eq!(m.get("datastore.cells"), Some(8.0));
        assert_eq!(m.get("datastore.writes_per_wave"), Some(8.0));
        assert!(m.get("datastore.put_ns").unwrap() > 0.0);
        assert!(m.get("core.observer_ns_per_write").is_some());

        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out/tmp")
            .join(format!("probe-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        durability_commit(&rec, &store, &dir, &mut m).unwrap();
        assert!(m.get("durability.wal_bytes_per_wave").unwrap() > 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn codec_probe_measures_both_directions() {
        let mut m = Measured::default();
        let report = WaveReport {
            wave: 7,
            training: false,
            clock: 99,
            executed: vec!["a".into()],
            skipped: vec!["b".into()],
            deferred: vec![],
        };
        codec(1, crate::workloads::side_writes(1, 0, 7, 4), report, &mut m);
        assert!(m.get("net.frame_bytes_per_wave").unwrap() > 100.0);
        assert!(m.get("net.encode_ns").unwrap() > 0.0 && m.get("net.decode_ns").unwrap() > 0.0);
    }
}
