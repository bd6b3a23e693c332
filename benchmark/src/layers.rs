//! `--trace 1`: the separate pass behind the per-layer metrics.
//!
//! Three things happen, none of which feeds an end-to-end number:
//!
//! 1. **Paired run.** An untraced and a traced party (and, for served
//!    workloads, an in-process durable shadow) take turns running blocks
//!    of the same waves for `--seconds` in total, so their medians compare
//!    like for like: traced ÷ untraced is the tracing overhead, served −
//!    shadow is the network plane.
//! 2. **Traced spans.** The traced party's program spans, under the
//!    benchmark's `bench.*` spans, give the engine's self time and the
//!    share of a wave no span owns; they are written to
//!    `trace-<workload>.json`.
//! 3. **Probe pass.** A stretch of the untraced party's waves is recorded
//!    and replayed into one layer at a time (`probes.rs`).

use std::path::Path;
use std::time::{Duration, Instant};

use smartflux_datastore::DataStore;

use crate::common::{peak_rss_mb, sorted_us, twin_audit, BenchResult, Context};
use crate::inproc::{Driver, Inproc, Options, WaveLog};
use crate::json::{obj, Json};
use crate::metrics::{Measured, PER_LAYER};
use crate::probes::{self, Recorder, Recording};
use crate::run::{RunArgs, RunReport, Scratch};
use crate::served;
use crate::stats::{median, median_sorted, tail};
use crate::trace::{Captured, Tracer};
use crate::workloads::{Drive, Workload, NO_CHECKPOINTS};

/// Full span trees kept in the trace file (aggregates cover every wave).
const TRACE_FILE_WAVES: usize = 25;

/// Runs the parties in turn, `block` waves each, until `seconds` have
/// passed in total and each has completed `min_waves`.
fn alternate(
    parties: &mut [&mut dyn Driver],
    block: u64,
    seconds: f64,
    min_waves: u64,
) -> BenchResult<()> {
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds
        || parties.iter().any(|p| p.app_waves() < min_waves)
    {
        for party in parties.iter_mut() {
            for _ in 0..block {
                party.step()?;
            }
        }
    }
    Ok(())
}

fn p50_us(log: &WaveLog) -> f64 {
    median_sorted(&sorted_us(&log.wave_ns))
}

/// Records `waves` more waves of `party` on `store`; checks on the way
/// that the store's logical clock advanced by exactly the writes seen.
fn record(party: &mut dyn Driver, store: &DataStore, waves: u64) -> BenchResult<Recording> {
    let clock_before = store.clock();
    let mut recorder = Recorder::attach(store);
    let mut outcome = Ok(());
    for _ in 0..waves {
        outcome = party.step();
        if outcome.is_err() {
            break;
        }
        recorder.end_wave();
    }
    let recording = recorder.detach(store);
    outcome?;
    let advanced = store.clock() - clock_before;
    if advanced == 0 || advanced != recording.total_writes() || advanced != recording.writes {
        return Err(format!(
            "store clock advanced by {advanced} over {} observed writes ({} counted operations)",
            recording.total_writes(),
            recording.writes
        ));
    }
    Ok(recording)
}

/// What the three flows hand to the common tail.
struct Pass {
    untraced: WaveLog,
    traced: WaveLog,
    /// In-process durable shadow of a served workload.
    shadow: Option<WaveLog>,
    captured: Captured,
    measured: Measured,
    /// `VmHWM` once the untraced party was set up, before the traced
    /// party, the shadow and the span store existed.
    rss_mb: f64,
}

fn in_process(args: &RunArgs) -> BenchResult<Pass> {
    let w = args.workload;
    let tracer = Tracer::new();
    let (mut plain, _) = Inproc::setup(w, args.seed, &Options::default())?;
    let rss_mb = peak_rss_mb();
    let traced_options = Options {
        trace: Some(tracer.clone()),
        ..Options::default()
    };
    let (mut traced, _) = Inproc::setup(w, args.seed, &traced_options)?;
    // The first application waves are the recorded ones — a fixed stretch,
    // so the counts taken from it repeat exactly.
    let live = plain.store.clone();
    let recording = record(&mut plain, &live, w.query_every)?;
    alternate(
        &mut [&mut plain, &mut traced],
        w.query_every,
        args.seconds,
        w.audit_waves,
    )?;
    let captured = tracer.store.take();

    let mut m = Measured::default();
    let watched = probes::watched_containers(w, args.seed);
    probes::datastore(&recording, &live, &watched, w.query_every, &mut m)?;
    probes::core_observer(&recording, &live, &watched, &mut m)?;
    shared_probes(w, args.seed, &plain, &mut m)?;
    Ok(Pass {
        untraced: plain.log.clone(),
        traced: traced.log.clone(),
        shadow: None,
        captured,
        measured: m,
        rss_mb,
    })
}

/// Probes that need a live in-process session: the model on its harvested
/// knowledge base, the diagnostics read path, the synchronous baseline.
fn shared_probes(w: &Workload, seed: u64, session: &Inproc, m: &mut Measured) -> BenchResult<()> {
    let kb = session.session.knowledge_base();
    let impacts: Vec<Vec<f64>> = session.session.engine().with(|e| {
        e.diagnostics()
            .iter()
            .filter(|d| !d.training)
            .take(2000)
            .map(|d| d.impacts.clone())
            .collect()
    });
    probes::model(w, seed, &kb, &impacts, m)?;
    let mut rows = 0;
    let clones: Vec<f64> = (0..10)
        .map(|_| {
            let start = Instant::now();
            rows = std::hint::black_box(session.session.diagnostics()).len();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    m.put("core.diagnostics_clone_us", median(&clones) / 1e3, 10);
    m.put("core.diag_rows", rows as f64, 1);
    probes::sync_wave(w, seed, 1.5, m)
}

/// Times `reps` calls of a client operation; returns the median in ns and
/// the failures.
fn time_client<T, E>(reps: usize, mut call: impl FnMut() -> Result<T, E>) -> (f64, u64) {
    let mut failures = 0;
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            failures += u64::from(call().is_err());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    (median(&times), failures)
}

fn served_flow(args: &RunArgs, out: &Path) -> BenchResult<Pass> {
    let w = args.workload;
    let scratch = Scratch::new(&out.join("tmp"), &format!("{}-layers", w.name))?;
    let tracer = Tracer::new();
    let shadow_dir = scratch.sub("shadow");
    let shadow_options = Options {
        side: true,
        durable: Some(shadow_dir.clone()),
        ..Options::default()
    };

    let (plain_server, mut plain, _) = served::setup(w, args.seed, &scratch.sub("plain"), None)?;
    let rss_mb = peak_rss_mb();
    let (traced_server, mut traced, _) =
        served::setup(w, args.seed, &scratch.sub("traced"), Some(&tracer))?;
    let (mut shadow, _) = Inproc::setup(w, args.seed, &shadow_options)?;

    // The untraced connection 0's store, reached through the registry
    // closure: of the stores the host built, the one whose clock moves
    // when that connection runs a wave. The application waves right after
    // are the recorded ones — a fixed stretch, so its counts repeat exactly.
    let stores = plain_server
        .stores
        .lock()
        .expect("store list lock is never poisoned: pushes cannot panic")
        .clone();
    let clocks: Vec<u64> = stores.iter().map(DataStore::clock).collect();
    plain[0].step()?;
    let live = stores
        .into_iter()
        .zip(clocks)
        .find(|(store, before)| store.clock() != *before)
        .map(|(store, _)| store)
        .ok_or("no store of the host moved when connection 0 ran a wave")?;
    let recording = record(&mut plain[0], &live, w.query_every)?;

    match w.drive {
        Drive::ServedClosed => alternate(
            &mut [&mut plain[0], &mut traced[0], &mut shadow],
            w.query_every,
            args.seconds,
            w.audit_waves,
        )?,
        Drive::ServedOpen => {
            // A schedule cannot be cut into alternating blocks; the offered
            // rate is the same in both halves, so they compare as they are.
            served::run_open(&mut plain, args.seconds / 2.0)?;
            served::run_open(&mut traced, args.seconds / 2.0)?;
            let waves = plain[0].app_waves();
            while shadow.app_waves() < waves {
                shadow.wave()?;
            }
        }
        Drive::InProcess => unreachable!("served_flow drives served workloads only"),
    }

    let mut m = Measured::default();
    let busy = traced_server
        .telemetry
        .snapshot()
        .counter(smartflux_telemetry::names::NET_BUSY_REJECTIONS);
    m.put("net.busy_rejections", busy as f64, 1);
    let mut traced_log = WaveLog::default();
    for c in &traced {
        traced_log.merge(c.log.clone());
    }
    drop(traced);
    if w.checkpoint_interval == NO_CHECKPOINTS {
        traced_server.shutdown();
    } else {
        let (seconds, _) = traced_server.kill_and_recover(w, args.seed, Some(&tracer))?;
        m.put("net.recover_s", seconds, 1);
    }
    let captured = tracer.store.take();

    let watched = probes::watched_containers(w, args.seed);
    probes::datastore(&recording, &live, &watched, w.query_every, &mut m)?;
    probes::core_observer(&recording, &live, &watched, &mut m)?;
    shared_probes(w, args.seed, &shadow, &mut m)?;
    probes::durability_commit(&recording, &live, &scratch.sub("probe"), &mut m)?;

    // A real checkpoint, engine state included: the shadow session's.
    let (checkpoint, failures) = time_client(5, || shadow.session.checkpoint());
    probes::account(
        "durability.checkpoint_ms",
        5,
        Duration::from_nanos((checkpoint * 5.0) as u64),
        failures,
    );
    m.put("durability.checkpoint_ms", checkpoint / 1e6, 5);
    let bytes = std::fs::metadata(shadow_dir.join(smartflux_durability::CHECKPOINT_FILE))
        .context("checkpoint file")?
        .len();
    m.put("durability.checkpoint_bytes", bytes as f64, 1);
    probes::recover(&shadow_dir, &mut m);

    let batch = plain[0].next_batch();
    if let Some(report) = plain[0].last_report.clone() {
        probes::codec(plain[0].session, batch.clone(), report, &mut m);
    }
    let (client, session) = plain[0].client();
    let (ingest, f1) = time_client(300, || client.ingest(session, batch.clone()));
    let (decisions, f2) = time_client(10, || client.query_decisions(session, 0));
    let (image, f3) = time_client(5, || client.query_store(session));
    probes::account(
        "net.client_calls",
        315,
        Duration::from_nanos((ingest * 300.0 + decisions * 10.0 + image * 5.0) as u64),
        f1 + f2 + f3,
    );
    m.put("net.ingest_rtt_us", ingest / 1e3, 300);
    m.put("net.query_decisions_us", decisions / 1e3, 10);
    m.put("net.query_store_ms", image / 1e6, 5);

    let mut plain_log = WaveLog::default();
    for c in &plain {
        plain_log.merge(c.log.clone());
    }
    drop(plain);
    plain_server.shutdown();
    m.put(
        "net.plane_us",
        p50_us(&plain_log) - p50_us(&shadow.log),
        plain_log.wave_ns.len() as u64,
    );
    Ok(Pass {
        untraced: plain_log,
        traced: traced_log,
        shadow: Some(shadow.log.clone()),
        captured,
        measured: m,
        rss_mb,
    })
}

/// `--trace 1`: the per-layer metrics of one run, and the trace file.
pub fn run_per_layer(args: &RunArgs, out: &Path) -> BenchResult<RunReport> {
    let w = args.workload;
    let started = Instant::now();
    let pass = if w.served() {
        served_flow(args, out)?
    } else {
        in_process(args)?
    };
    let Pass {
        untraced,
        traced,
        shadow,
        captured,
        measured: mut m,
        rss_mb,
    } = pass;

    let summary = captured.summarize();
    m.put("wms.step_total_us", summary.step_total_us, summary.waves);
    m.put("core.engine_self_us", summary.engine_self_us, summary.waves);
    m.put("core.impact_us", summary.impact_us, summary.waves);
    m.put("core.predict_us", summary.predict_us, summary.waves);
    m.put(
        "bench.unattributed_ratio",
        summary.unattributed_ratio,
        summary.waves,
    );
    m.put(
        "wms.steps_executed",
        untraced.steps_executed as f64,
        w.audit_waves,
    );
    m.put(
        "wms.steps_skipped",
        untraced.steps_skipped as f64,
        w.audit_waves,
    );
    let n = untraced.wave_ns.len() as u64;
    let plain_p50 = p50_us(&untraced);
    m.put(
        "telemetry.trace_overhead_ratio",
        if plain_p50 > 0.0 {
            p50_us(&traced) / plain_p50
        } else {
            0.0
        },
        n,
    );
    let waves = sorted_us(&untraced.wave_ns);
    m.put("wave_p99_us", tail(&waves, 0.99).0, n);
    let queries = sorted_us(&untraced.query_ns);
    m.put(
        "query_p50_us",
        median_sorted(&queries),
        queries.len() as u64,
    );
    m.put("peak_rss_mb", rss_mb, 1);
    let audit = twin_audit(w, args.seed, w.audit_waves)?;
    m.put(
        "bound_confidence",
        audit.bound_confidence,
        audit.audited_waves,
    );
    let late = sorted_us(&untraced.late_ns);
    if !late.is_empty() {
        m.put(
            "bench.gen_late_p99_us",
            tail(&late, 0.99).0,
            late.len() as u64,
        );
    }

    std::fs::create_dir_all(out).context("create output directory")?;
    let trace_path = out.join(format!("trace-{}.json", w.name));
    std::fs::write(
        &trace_path,
        captured.to_json(w.name, TRACE_FILE_WAVES).pretty(),
    )
    .context("write trace file")?;

    let attempted =
        untraced.attempted + traced.attempted + shadow.as_ref().map_or(0, |s| s.attempted);
    let failed = untraced.failed + traced.failed + shadow.as_ref().map_or(0, |s| s.failed);
    let detail = obj([
        ("workload", w.name.into()),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("correct", (failed == 0).into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", m.detail(&PER_LAYER)),
        ("untraced_wave_p50_us", plain_p50.into()),
        ("traced_wave_p50_us", p50_us(&traced).into()),
        (
            "shadow_wave_p50_us",
            shadow.as_ref().map_or(Json::Null, |s| p50_us(s).into()),
        ),
        ("traced_waves", summary.waves.into()),
        ("trace_file", trace_path.display().to_string().into()),
        (
            "pass_seconds",
            Duration::as_secs_f64(&started.elapsed()).into(),
        ),
    ]);
    Ok(RunReport {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m,
        detail,
    })
}
