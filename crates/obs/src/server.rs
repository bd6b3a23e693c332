//! The embedded observability HTTP server.
//!
//! A hand-rolled HTTP/1.1 server on the shared [`ListenerPool`]: a small
//! fixed pool of worker threads each `accept`s on its own clone of the
//! listener and serves one request per connection. Graceful shutdown is
//! the pool's loopback-wake pattern: flip the flag, poke each worker
//! with a local connection so no thread stays parked in `accept`.
//!
//! Endpoints:
//!
//! | Path        | Content                                                   |
//! |-------------|-----------------------------------------------------------|
//! | `/metrics`  | OpenMetrics exposition of the telemetry snapshot          |
//! | `/healthz`  | JSON: status, phase, last wave + age, checkpoint lag      |
//! | `/waves`    | JSON array: ring-buffered tail of wave-decision records   |
//! | `/trace`    | Chrome trace JSON of the span ring (`?waves=N` to filter) |

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use smartflux_telemetry::{names, SpanEvent, Telemetry};

use crate::http::{read_request, write_response, Request};
use crate::listener::ListenerPool;
use crate::openmetrics;
use crate::perfetto;
use crate::ring::{RingJournal, RingTraceSink};

/// How long a worker waits on a client socket before giving up on it.
const CLIENT_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// The telemetry surfaces the server reads from.
///
/// Only `telemetry` is mandatory; without the rings, `/waves` serves an
/// empty array and `/trace` an empty trace.
#[derive(Debug, Clone, Default)]
pub struct ObsSources {
    /// Metrics snapshot + health registers.
    pub telemetry: Telemetry,
    /// Span ring backing `/trace` (attach the same ring as the
    /// telemetry trace sink).
    pub trace: Option<Arc<RingTraceSink>>,
    /// Wave-decision ring backing `/waves` (attach the same ring as a
    /// journal sink).
    pub waves: Option<Arc<RingJournal>>,
}

/// A running observability server; dropping it without calling
/// [`shutdown`](Self::shutdown) detaches the workers (they keep serving
/// until process exit).
#[derive(Debug)]
pub struct ObsServer {
    pool: ListenerPool,
}

impl ObsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9464"`, or port 0 for an ephemeral
    /// port) and starts `workers` serving threads.
    ///
    /// # Errors
    ///
    /// Returns binding errors (address in use, permission denied, ...).
    pub fn start(addr: &str, sources: ObsSources, workers: usize) -> io::Result<Self> {
        let pool = ListenerPool::start(addr, workers, move |mut stream, _stop| {
            serve_connection(&mut stream, &sources);
        })?;
        Ok(Self { pool })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.pool.addr()
    }

    /// Stops accepting, unblocks every worker, and joins them.
    pub fn shutdown(self) {
        self.pool.shutdown();
    }
}

/// Serves one HTTP request on a freshly accepted connection.
fn serve_connection(stream: &mut TcpStream, sources: &ObsSources) {
    let _ = stream.set_read_timeout(Some(CLIENT_IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(CLIENT_IO_TIMEOUT));
    let Ok(request) = read_request(stream) else {
        let _ = write_response(stream, 400, "Bad Request", "text/plain", "bad request\n");
        return;
    };
    let _ = respond(stream, &request, sources);
}

fn respond(stream: &mut TcpStream, request: &Request, sources: &ObsSources) -> io::Result<()> {
    if request.method != "GET" {
        return write_response(
            stream,
            405,
            "Method Not Allowed",
            "text/plain",
            "only GET is supported\n",
        );
    }
    match request.path.as_str() {
        "/metrics" => {
            let body = openmetrics::render(&sources.telemetry.snapshot());
            write_response(stream, 200, "OK", openmetrics::CONTENT_TYPE, &body)
        }
        "/healthz" => write_response(
            stream,
            200,
            "OK",
            "application/json",
            &health_json(&sources.telemetry),
        ),
        "/waves" => {
            let limit = query_u64(request, "n").map(|n| n as usize);
            write_response(
                stream,
                200,
                "OK",
                "application/json",
                &waves_json(sources, limit),
            )
        }
        "/trace" => {
            let events = trace_events(sources, query_u64(request, "waves"));
            write_response(
                stream,
                200,
                "OK",
                "application/json",
                &perfetto::render(&events),
            )
        }
        _ => write_response(stream, 404, "Not Found", "text/plain", "not found\n"),
    }
}

fn query_u64(request: &Request, key: &str) -> Option<u64> {
    request.query.get(key).and_then(|v| v.parse().ok())
}

/// Renders `/healthz`: status, engine phase, last wave and its age,
/// checkpoint lag, the model's build time and age. The status is
/// `degraded` while checkpoints are overdue (more than two intervals of
/// waves since the last durable one).
fn health_json(telemetry: &Telemetry) -> String {
    let health = telemetry.health().snapshot();
    let age = health
        .last_wave_age
        .map_or("null".to_owned(), |age| age.as_millis().to_string());
    let status = if health.checkpoints_overdue() {
        "degraded"
    } else {
        "ok"
    };
    format!(
        "{{\"status\":\"{status}\",\"phase\":\"{}\",\"last_wave\":{},\"last_wave_age_ms\":{},\"checkpoint_lag_waves\":{},\"model_build_ms\":{},\"model_age_waves\":{}}}",
        health.phase,
        health.last_wave,
        age,
        health.checkpoint_lag_waves,
        health.model_build_ms,
        health.model_age_waves
    )
}

/// Renders `/waves`: the journal ring tail as a JSON array, newest last.
fn waves_json(sources: &ObsSources, limit: Option<usize>) -> String {
    let records = sources
        .waves
        .as_ref()
        .map(|ring| ring.records())
        .unwrap_or_default();
    let skip = limit.map_or(0, |l| records.len().saturating_sub(l));
    let mut out = String::from("[");
    for (i, record) in records.iter().skip(skip).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&record.to_json());
    }
    out.push(']');
    out
}

/// Collects the span ring, optionally narrowed to the newest `waves`
/// trace trees (by highest wave-root tag).
fn trace_events(sources: &ObsSources, waves: Option<u64>) -> Vec<SpanEvent> {
    let mut events = sources
        .trace
        .as_ref()
        .map(|ring| ring.events())
        .unwrap_or_default();
    let Some(waves) = waves else {
        return events;
    };
    // Wave roots carry the wave number as their tag; keep the trace ids
    // of the N newest waves.
    let mut roots: Vec<(u64, u64)> = events
        .iter()
        .filter(|e| e.is_root() && e.name == names::WAVE_LATENCY)
        .map(|e| (e.tag, e.trace_id))
        .collect();
    roots.sort_unstable();
    let keep: Vec<u64> = roots
        .iter()
        .rev()
        .take(waves as usize)
        .map(|&(_, trace)| trace)
        .collect();
    events.retain(|e| keep.contains(&e.trace_id));
    events
}

/// Pre-registers the conventional SmartFlux instruments so a freshly
/// started deployment's `/metrics` already lists every family at zero —
/// dashboards and scrapers see a stable schema from the first scrape.
pub fn preregister(telemetry: &Telemetry) {
    if !telemetry.is_enabled() {
        return;
    }
    for name in [
        names::STEPS_EXECUTED,
        names::STEPS_SKIPPED,
        names::STEPS_DEFERRED,
        names::STEP_RETRIES,
        names::STEPS_FAILED,
        names::WAVES_ABORTED,
        names::SDF_FALLBACKS,
        names::STORE_READS,
        names::STORE_WRITES,
        names::WAL_RECORDS,
        names::WAL_BYTES,
        names::CHECKPOINTS,
        names::RECOVERIES,
        names::JOURNAL_ERRORS,
        names::NET_CONNECTIONS,
        names::NET_FRAMES_IN,
        names::NET_FRAMES_OUT,
        names::NET_FRAME_ERRORS,
        names::NET_BUSY_REJECTIONS,
    ] {
        let _ = telemetry.counter(name);
    }
    for name in [
        names::STORE_SHARDS,
        names::STORE_SHARD_READ_CONTENTION,
        names::STORE_SHARD_WRITE_CONTENTION,
        names::STORE_QUIESCES,
        names::ML_BATCH_SIZE,
        names::ML_MODEL_BUILD_MS,
        names::QOD_MODEL_AGE_WAVES,
        names::NET_ACTIVE_CONNECTIONS,
        names::NET_SESSIONS_OPEN,
        names::NET_QUEUE_DEPTH,
        names::CHECKPOINT_LAG_WAVES,
    ] {
        let _ = telemetry.gauge(name);
    }
    for name in [
        names::WAVE_LATENCY,
        names::STEP_LATENCY,
        names::STEP_TOTAL_LATENCY,
        names::STEP_ATTEMPT_LATENCY,
        names::IMPACT_LATENCY,
        names::ERROR_LATENCY,
        names::BASELINE_RESET_LATENCY,
        names::END_WAVE_LATENCY,
        names::PREDICT_LATENCY,
        names::TRAIN_LATENCY,
        names::ML_PREDICT_LATENCY,
        names::ML_FIT_LATENCY,
        names::STORE_READ_LATENCY,
        names::STORE_WRITE_LATENCY,
        names::FSYNC_LATENCY,
        names::WAL_COMMIT_LATENCY,
        names::CHECKPOINT_WRITE_LATENCY,
        names::CHECKPOINT_CAPTURE_LATENCY,
        names::WAL_COMPACT_LATENCY,
        names::NET_SUBMIT_LATENCY,
    ] {
        let _ = telemetry.histogram(name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::get;
    use smartflux_telemetry::{JournalSink, TraceSink, WaveDecisionRecord};
    use std::time::Duration;

    fn sources() -> ObsSources {
        let telemetry = Telemetry::enabled();
        preregister(&telemetry);
        let trace = Arc::new(RingTraceSink::with_capacity(1024));
        let waves = Arc::new(RingJournal::with_capacity(64));
        telemetry.set_trace_sink(Some(Arc::clone(&trace) as Arc<dyn TraceSink>));
        ObsSources {
            telemetry,
            trace: Some(trace),
            waves: Some(waves),
        }
    }

    #[test]
    fn serves_metrics_health_waves_and_trace() {
        let s = sources();
        s.telemetry.counter(names::STEP_RETRIES).add(2);
        s.telemetry.health().set_phase("application");
        s.telemetry.health().note_wave(17);
        s.telemetry.health().set_model_build_ms(180);
        s.telemetry.health().set_model_age_waves(9);
        {
            let _span = s.telemetry.span(names::WAVE_LATENCY, 1);
        }
        s.waves
            .as_ref()
            .unwrap()
            .record(&WaveDecisionRecord {
                wave: 17,
                phase: "application",
                step: "agg".into(),
                step_index: 0,
                impacts: vec![0.5],
                predicted: vec![false],
                executed: false,
                deferred: 0,
                confidence: 0.9,
                max_epsilon: 0.1,
                measured_epsilon: None,
            })
            .unwrap();

        let telemetry = s.telemetry.clone();
        let server = ObsServer::start("127.0.0.1:0", s, 2).unwrap();
        let addr = server.addr().to_string();
        let timeout = Duration::from_secs(5);

        let (status, metrics) = get(&addr, "/metrics", timeout).unwrap();
        assert_eq!(status, 200);
        let parsed = crate::openmetrics::parse(&metrics).unwrap();
        assert_eq!(parsed.counter_total("wms.step_retries"), Some(2.0));
        assert_eq!(parsed.counter_total("durability.wal_records"), Some(0.0));
        for span in [
            names::ERROR_LATENCY,
            names::BASELINE_RESET_LATENCY,
            names::END_WAVE_LATENCY,
        ] {
            assert_eq!(
                parsed.quantile(span, "0.5"),
                Some(0.0),
                "`{span}` is listed before its first span"
            );
        }

        let (status, health) = get(&addr, "/healthz", timeout).unwrap();
        assert_eq!(status, 200);
        assert!(health.contains("\"phase\":\"application\""));
        assert!(health.contains("\"last_wave\":17"));
        assert!(!health.contains("wal_lag_bytes"));
        assert!(health.contains("\"model_build_ms\":180,\"model_age_waves\":9"));
        assert!(health.contains("\"status\":\"ok\""));
        // Checkpoints stopped landing: the report degrades.
        telemetry.health().set_checkpoint_lag(41, 20);
        let (status, health) = get(&addr, "/healthz", timeout).unwrap();
        assert_eq!(status, 200);
        assert!(health.contains("\"status\":\"degraded\""));
        assert!(health.contains("\"checkpoint_lag_waves\":41"));

        let (status, waves) = get(&addr, "/waves", timeout).unwrap();
        assert_eq!(status, 200);
        assert!(waves.starts_with('[') && waves.ends_with(']'));
        assert!(waves.contains("\"wave\":17"));

        let (status, trace) = get(&addr, "/trace?waves=5", timeout).unwrap();
        assert_eq!(status, 200);
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"name\":\"wms.wave\""));

        let (status, _) = get(&addr, "/nope", timeout).unwrap();
        assert_eq!(status, 404);

        server.shutdown();
    }

    #[test]
    fn shutdown_joins_all_workers() {
        let server = ObsServer::start("127.0.0.1:0", sources(), 3).unwrap();
        let addr = server.addr().to_string();
        server.shutdown();
        // The port is released: a fresh request must fail to connect or
        // read nothing; either way no worker is still serving.
        assert!(get(&addr, "/metrics", Duration::from_millis(200)).is_err());
    }

    #[test]
    fn waves_endpoint_honours_the_limit() {
        let s = sources();
        for wave in 1..=5u64 {
            s.waves
                .as_ref()
                .unwrap()
                .record(&WaveDecisionRecord {
                    wave,
                    phase: "training",
                    step: "x".into(),
                    step_index: 0,
                    impacts: vec![],
                    predicted: vec![],
                    executed: true,
                    deferred: 0,
                    confidence: 1.0,
                    max_epsilon: 0.1,
                    measured_epsilon: Some(0.0),
                })
                .unwrap();
        }
        let server = ObsServer::start("127.0.0.1:0", s, 1).unwrap();
        let addr = server.addr().to_string();
        let (_, body) = get(&addr, "/waves?n=2", Duration::from_secs(5)).unwrap();
        assert!(!body.contains("\"wave\":3"));
        assert!(body.contains("\"wave\":4") && body.contains("\"wave\":5"));
        server.shutdown();
    }
}
