//! Diagnostic tool: inspects a workload's knowledge base, model quality,
//! per-step execution rates, violation structure, and the oracle ceiling.
//!
//! Useful when tuning a new workload's QoD bounds or metric functions:
//! degenerate label rates, out-of-range impacts and attenuating step chains
//! all show up here before they show up as low confidence.
//!
//! Run with: `cargo run --release -p smartflux-bench --bin diagnose [bound]`
//!
//! Pass `--json` for machine-readable output: one JSON object per workload
//! per line (layout versioned by `schema_version`), carrying the run
//! summary, the model quality, each QoD step's compiled rule (`step_rules`:
//! its cut count on ι, how often its decision flips along ι, and whether
//! the application phase measures its ι at all), the full
//! telemetry snapshot and — when the run produced them — `fault_tolerance`,
//! `durability` and `store` sections (sections with nothing to report are
//! omitted). With
//! `--journal <dir>` it also writes and reports the wave-decision journal.
//!
//! Two further modes drive the live observability plane:
//!
//! - `diagnose serve [--addr A] [--bound B] [--training N] [--waves N]
//!   [--trace-out F] [--once]` runs a traced LRB session with an
//!   `ObsServer` attached, exposing `/metrics`, `/healthz`, `/waves` and
//!   `/trace` while the run progresses, then keeps serving the final
//!   state (unless `--once`).
//! - `diagnose scrape [--addr A] [--min-wave N] [--timeout-secs S]
//!   [--trace-out F]` is the matching client: it waits for the served
//!   run to reach the application phase, then conformance-checks the
//!   OpenMetrics exposition and the trace/wave endpoints, exiting
//!   non-zero on any violation. CI runs serve + scrape as a pair.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use smartflux::eval::EvalPolicy;
use smartflux::{DurabilityOptions, SmartFluxSession};
use smartflux_bench::{diag, pct, Workload};
use smartflux_obs::{http, openmetrics, perfetto, preregister};
use smartflux_obs::{ObsServer, ObsSources, RingJournal, RingTraceSink};
use smartflux_telemetry::{json_string, names, JournalEntry, JournalSink, TraceSink};

struct Args {
    bound: f64,
    json: bool,
    journal_dir: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut out = Args {
        bound: 0.05,
        json: false,
        journal_dir: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => out.json = true,
            "--journal" => {
                out.journal_dir = args.next().map(PathBuf::from);
                assert!(out.journal_dir.is_some(), "--journal needs a directory");
            }
            other => {
                if let Ok(b) = other.parse() {
                    out.bound = b;
                } else {
                    eprintln!(
                        "usage: diagnose [bound] [--json] [--journal <dir>] | \
                         diagnose serve [options] | diagnose scrape [options]"
                    );
                    std::process::exit(2);
                }
            }
        }
    }
    out
}

fn run_json(args: &Args) {
    if let Some(dir) = &args.journal_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!(
                "diagnose: cannot create journal directory {}: {e}",
                dir.display()
            );
            std::process::exit(2);
        }
    }
    for wl in [Workload::Lrb, Workload::Aqhi] {
        let oracle = wl.evaluate_policy(args.bound, EvalPolicy::Oracle, wl.application_waves());

        // Checkpoint the run into a scratch directory so the JSON carries
        // real durability figures (checkpoint cadence) per workload.
        let state_dir = std::env::temp_dir().join(format!(
            "smartflux-diagnose-state-{}-{}",
            wl.id(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&state_dir);
        let mut config = wl
            .engine_config()
            .with_telemetry(true)
            .with_durability(DurabilityOptions::new(&state_dir));
        let journal =
            (args.journal_dir.as_ref()).map(|dir| dir.join(format!("{}-journal.jsonl", wl.id())));
        if let Some(path) = &journal {
            config = config.with_journal_path(path);
        }
        let report = wl.evaluate_policy(
            args.bound,
            EvalPolicy::SmartFlux(Box::new(config)),
            wl.application_waves(),
        );

        let quality = report
            .engine
            .as_ref()
            .and_then(|e| e.with(|e| e.predictor().quality()));
        let quality_json = quality.map_or_else(
            || "null".to_owned(),
            |q| {
                format!(
                    "{{\"accuracy\":{},\"precision\":{},\"recall\":{}}}",
                    q.accuracy, q.precision, q.recall
                )
            },
        );
        let rules_json = report
            .engine
            .as_ref()
            .and_then(|e| e.with(diag::step_rules_json))
            .unwrap_or_else(|| "null".to_owned());
        let journal_json = journal.map_or_else(
            || "null".to_owned(),
            |p| json_string(&p.display().to_string()),
        );
        let snapshot = report.telemetry.snapshot();
        println!(
            "{{\"schema_version\":{},\"workload\":{},\"bound\":{},\
             \"oracle\":{{\"executions\":{},\"confidence\":{},\"violations\":{}}},\
             \"smartflux\":{{\"executions\":{},\"confidence\":{},\"violations\":{}}},\
             \"model_quality\":{},\"step_rules\":{},\"journal_path\":{}{},\"telemetry\":{}}}",
            diag::SCHEMA_VERSION,
            json_string(wl.id()),
            args.bound,
            oracle.normalized_executions(),
            oracle.confidence.confidence(),
            oracle.confidence.violations(),
            report.normalized_executions(),
            report.confidence.confidence(),
            report.confidence.violations(),
            quality_json,
            rules_json,
            journal_json,
            diag::optional_sections(&snapshot),
            snapshot.to_json(),
        );
        let _ = std::fs::remove_dir_all(&state_dir);
    }
}

struct ServeArgs {
    addr: String,
    bound: f64,
    training: usize,
    waves: u64,
    trace_out: Option<PathBuf>,
    once: bool,
}

fn parse_serve_args(mut args: impl Iterator<Item = String>) -> ServeArgs {
    let mut out = ServeArgs {
        addr: "127.0.0.1:9464".to_owned(),
        bound: 0.10,
        training: 240,
        waves: 200,
        trace_out: None,
        once: false,
    };
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match a.as_str() {
            "--addr" => out.addr = value("--addr"),
            "--bound" => out.bound = value("--bound").parse().expect("--bound is a number"),
            "--training" => {
                out.training = value("--training").parse().expect("--training is a count");
            }
            "--waves" => out.waves = value("--waves").parse().expect("--waves is a count"),
            "--trace-out" => out.trace_out = Some(PathBuf::from(value("--trace-out"))),
            "--once" => out.once = true,
            other => {
                eprintln!(
                    "usage: diagnose serve [--addr A] [--bound B] [--training N] \
                     [--waves N] [--trace-out F] [--once] (got `{other}`)"
                );
                std::process::exit(2);
            }
        }
    }
    out
}

/// Runs a traced LRB session with the observability plane attached and
/// serves it over HTTP while (and after) the run progresses.
fn run_serve(args: &ServeArgs) {
    let store = smartflux_datastore::DataStore::new();
    let workflow = Workload::Lrb.factory(args.bound).build(&store);
    let state_dir =
        std::env::temp_dir().join(format!("smartflux-serve-state-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let config = Workload::Lrb
        .engine_config()
        .with_telemetry(true)
        .with_training_waves(args.training)
        .with_durability(DurabilityOptions::new(&state_dir));
    let mut session = SmartFluxSession::new(workflow, store, config).expect("LRB declares QoD");

    let telemetry = session.telemetry().clone();
    preregister(&telemetry);
    let trace = Arc::new(RingTraceSink::with_capacity(65_536));
    telemetry.set_trace_sink(Some(Arc::clone(&trace) as Arc<dyn TraceSink>));
    let waves_ring = Arc::new(RingJournal::with_capacity(1_024));
    telemetry.add_journal_sink(Arc::clone(&waves_ring) as Arc<dyn JournalSink>);

    let sources = ObsSources {
        telemetry,
        trace: Some(Arc::clone(&trace)),
        waves: Some(waves_ring),
    };
    let server = ObsServer::start(&args.addr, sources, 2).expect("bind observability address");
    println!("diagnose serve: listening on http://{}", server.addr());

    let ran = session.run_training().expect("training run succeeds");
    println!("diagnose serve: training complete after {ran} waves");
    session
        .run_waves(args.waves)
        .expect("application run succeeds");
    println!(
        "diagnose serve: {} application waves done ({} spans recorded)",
        args.waves,
        trace.recorded()
    );

    if let Some(path) = &args.trace_out {
        std::fs::write(path, perfetto::render(&trace.events())).expect("write trace file");
        println!("diagnose serve: wrote Perfetto trace to {}", path.display());
    }

    if args.once {
        server.shutdown();
        let _ = std::fs::remove_dir_all(&state_dir);
        return;
    }
    // Keep serving the final state until killed (CI scrapes us here).
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

struct ScrapeArgs {
    addr: String,
    min_wave: u64,
    timeout_secs: u64,
    trace_out: Option<PathBuf>,
}

fn parse_scrape_args(mut args: impl Iterator<Item = String>) -> ScrapeArgs {
    let mut out = ScrapeArgs {
        addr: "127.0.0.1:9464".to_owned(),
        min_wave: 1,
        timeout_secs: 600,
        trace_out: None,
    };
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match a.as_str() {
            "--addr" => out.addr = value("--addr"),
            "--min-wave" => {
                out.min_wave = value("--min-wave").parse().expect("--min-wave is a count");
            }
            "--timeout-secs" => {
                out.timeout_secs = value("--timeout-secs")
                    .parse()
                    .expect("--timeout-secs is a count");
            }
            "--trace-out" => out.trace_out = Some(PathBuf::from(value("--trace-out"))),
            other => {
                eprintln!(
                    "usage: diagnose scrape [--addr A] [--min-wave N] \
                     [--timeout-secs S] [--trace-out F] (got `{other}`)"
                );
                std::process::exit(2);
            }
        }
    }
    out
}

/// Extracts an unsigned integer field from a flat JSON object, crudely:
/// `"name":123`. Good enough for `/healthz`, whose schema we own.
fn json_u64_field(body: &str, field: &str) -> Option<u64> {
    let key = format!("\"{field}\":");
    let rest = &body[body.find(&key)? + key.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Conformance-scrapes a served run; returns an error description on the
/// first violation.
fn run_scrape(args: &ScrapeArgs) -> Result<(), String> {
    let io_timeout = Duration::from_secs(5);
    let deadline = Instant::now() + Duration::from_secs(args.timeout_secs);

    // 1. Wait for the served run to reach the application phase.
    loop {
        if let Ok((200, body)) = http::get(&args.addr, "/healthz", io_timeout) {
            let wave = json_u64_field(&body, "last_wave").unwrap_or(0);
            if body.contains("\"phase\":\"application\"") && wave >= args.min_wave {
                println!("scrape: healthy at wave {wave}: {body}");
                break;
            }
        }
        if Instant::now() > deadline {
            return Err(format!(
                "timed out after {}s waiting for application phase at wave {}",
                args.timeout_secs, args.min_wave
            ));
        }
        std::thread::sleep(Duration::from_millis(250));
    }

    // 2. The OpenMetrics exposition must parse and carry the key series.
    let (status, text) =
        http::get(&args.addr, "/metrics", io_timeout).map_err(|e| format!("GET /metrics: {e}"))?;
    if status != 200 {
        return Err(format!("GET /metrics returned {status}"));
    }
    let exposition = openmetrics::parse(&text).map_err(|e| format!("/metrics conformance: {e}"))?;
    for counter in [
        names::STEP_RETRIES,
        names::STEPS_EXECUTED,
        names::CHECKPOINTS,
        names::STORE_WRITES,
    ] {
        if exposition.counter_total(counter).is_none() {
            return Err(format!("/metrics is missing counter `{counter}`"));
        }
    }
    if exposition
        .gauge(names::STORE_SHARD_WRITE_CONTENTION)
        .is_none()
    {
        return Err("/metrics is missing gauge `store.shard_write_contention`".into());
    }
    for histogram in [names::WAVE_LATENCY, names::STEP_TOTAL_LATENCY] {
        for q in ["0.5", "0.95", "0.99"] {
            if exposition.quantile(histogram, q).is_none() {
                return Err(format!("/metrics is missing p{q} of `{histogram}`"));
            }
        }
    }
    let executed = exposition
        .counter_total(names::STEPS_EXECUTED)
        .unwrap_or(0.0);
    if executed <= 0.0 {
        return Err("served run executed no steps".into());
    }
    println!(
        "scrape: /metrics ok ({} families, {} steps executed, p95 wave {}s)",
        exposition.families.len(),
        executed,
        exposition
            .quantile(names::WAVE_LATENCY, "0.95")
            .unwrap_or(0.0),
    );

    // 3. /waves serves the newest waves' journal lines: `n` counts waves,
    // consecutive and increasing, each with one entry per QoD step.
    let (status, body) =
        http::get(&args.addr, "/waves?n=5", io_timeout).map_err(|e| format!("GET /waves: {e}"))?;
    let entries = JournalEntry::list_from_json(&body).unwrap_or_default();
    let waves: Vec<u64> = entries.iter().map(|e| e.row.wave).collect();
    let shaped =
        |e: &JournalEntry| [e.row.impacts.len(), e.row.decisions.len()] == [e.steps.len(); 2];
    if status != 200
        || waves.len() != 5
        || waves.windows(2).any(|w| w[1] != w[0] + 1)
        || !entries.iter().all(shaped)
    {
        return Err(format!("GET /waves?n=5 returned {status}, not 5 consecutive waves with one impact and decision per step: {body}"));
    }
    println!("scrape: /waves ok (waves {waves:?}, {} bytes)", body.len());

    // 4. /trace serves loadable Chrome trace JSON with wave roots.
    let (status, body) = http::get(&args.addr, "/trace?waves=8", io_timeout)
        .map_err(|e| format!("GET /trace: {e}"))?;
    if status != 200 || !body.contains("\"traceEvents\"") || !body.contains("wms.wave") {
        return Err(format!("GET /trace returned {status} without wave spans"));
    }
    if let Some(path) = &args.trace_out {
        std::fs::write(path, &body).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("scrape: wrote trace artifact to {}", path.display());
    }
    println!("scrape: /trace ok ({} bytes)", body.len());
    Ok(())
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("serve") => {
            run_serve(&parse_serve_args(std::env::args().skip(2)));
            return;
        }
        Some("scrape") => {
            if let Err(e) = run_scrape(&parse_scrape_args(std::env::args().skip(2))) {
                eprintln!("scrape: FAILED: {e}");
                std::process::exit(1);
            }
            println!("scrape: all observability checks passed");
            return;
        }
        _ => {}
    }

    let args = parse_args();
    if args.json {
        run_json(&args);
        return;
    }
    let bound = args.bound;

    for wl in [Workload::Lrb, Workload::Aqhi] {
        println!("\n════ {} @ bound {} ════", wl.id(), pct(bound));

        // Oracle ceiling: what a perfect predictor would achieve.
        let oracle = wl.evaluate_policy(bound, EvalPolicy::Oracle, wl.application_waves());
        println!(
            "oracle ceiling: {} executions, {} confidence ({} violations)",
            pct(oracle.normalized_executions()),
            pct(oracle.confidence.confidence()),
            oracle.confidence.violations()
        );

        // SmartFlux run with full diagnostics.
        let report = wl.evaluate_policy(
            bound,
            EvalPolicy::SmartFlux(Box::new(wl.engine_config())),
            wl.application_waves(),
        );
        println!(
            "smartflux:      {} executions, {} confidence ({} violations)",
            pct(report.normalized_executions()),
            pct(report.confidence.confidence()),
            report.confidence.violations()
        );

        let engine = report.engine.as_ref().expect("smartflux run has an engine");
        engine.with(|e| {
            let kb = e.knowledge_base();
            println!("\nknowledge base ({} rows):", kb.len());
            println!(
                "  {:<20} {:>10} {:>24}",
                "step", "label rate", "impact range"
            );
            let app: Vec<_> = e.diagnostics().iter().filter(|d| !d.training).collect();
            for (j, name) in e.qod_step_names().iter().enumerate() {
                let impacts: Vec<f64> = kb.rows().iter().map(|r| r.impacts[j]).collect();
                let lo = impacts.iter().copied().fold(f64::MAX, f64::min);
                let hi = impacts.iter().copied().fold(f64::MIN, f64::max);
                let app_rate =
                    app.iter().filter(|d| d.decisions[j]).count() as f64 / app.len().max(1) as f64;
                println!(
                    "  {:<20} {:>10.2} {:>10.2e}..{:>9.2e}  (app rate {:.2})",
                    name,
                    kb.positive_rate(j),
                    lo,
                    hi,
                    app_rate
                );
            }
            if let Some(q) = e.predictor().quality() {
                println!(
                    "\nmodel quality (out-of-bag): accuracy {:.3}, precision {:.3}, recall {:.3}",
                    q.accuracy, q.precision, q.recall
                );
            }
        });

        // Violation structure by hour of the workload's cycle.
        let cycle = if wl == Workload::Lrb { 240 } else { 24 };
        let buckets = 24;
        let mut by_bucket = vec![0usize; buckets];
        for w in &report.waves {
            if !w.compliant {
                by_bucket[((w.wave % cycle) * buckets as u64 / cycle) as usize] += 1;
            }
        }
        println!("violations across the {cycle}-wave cycle: {by_bucket:?}");
    }
}
