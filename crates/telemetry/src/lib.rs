//! Unified telemetry for the SmartFlux reproduction.
//!
//! Three pillars, shared by every layer of the stack (engine, scheduler,
//! data store, bench harness):
//!
//! 1. a **metrics registry** ([`MetricsRegistry`]) — named atomic counters,
//!    gauges, and fixed-bucket latency histograms with p50/p95/p99
//!    summaries and a cheap [`snapshot`](Telemetry::snapshot);
//! 2. a **wave-decision journal** — one [`WaveDiagnostics`] row per wave
//!    (impact vector ι, trigger set, deferred steps, and on training waves
//!    the measured ε and running confidence), handed with the session's
//!    [`QodStep`]s to pluggable [`JournalSink`]s such as the JSONL file
//!    sink;
//! 3. a **span API** ([`Span`], [`span!`]) — RAII guards timing code
//!    regions into the histogram registry and an optional [`TraceSink`].
//!
//! The entry point is [`Telemetry`]: a cheaply-cloneable handle that is
//! *disabled by default*. Disabled handles short-circuit every operation
//! on a single relaxed atomic load, so instrumented hot paths cost nearly
//! nothing until someone turns observability on.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use smartflux_telemetry::{span, MemoryJournal, QodStep, Telemetry, WaveDiagnostics};
//!
//! let telemetry = Telemetry::enabled();
//! let journal = Arc::new(MemoryJournal::new());
//! telemetry.add_journal_sink(journal.clone());
//!
//! {
//!     let _wave = span!(telemetry, "wms.wave", tag = 1);
//!     telemetry.counter("store.writes").incr();
//! }
//! let steps: Arc<[QodStep]> = Arc::from(vec![QodStep {
//!     name: "aggregate".into(),
//!     max_epsilon: 0.05,
//! }]);
//! telemetry.journal(&steps, &WaveDiagnostics {
//!     wave: 1,
//!     impacts: vec![0.3],
//!     decisions: vec![true],
//!     deferred: 0,
//!     ground_truth: None,
//!     training: false,
//! });
//!
//! let snap = telemetry.snapshot();
//! assert_eq!(snap.counter("store.writes"), 1);
//! assert_eq!(snap.histogram("wms.wave").unwrap().count, 1);
//! assert_eq!(journal.rows().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod health;
mod journal;
mod metrics;
mod span;

pub use health::{Health, HealthSnapshot};
pub use journal::{
    read_journal, GroundTruth, JournalEntry, JournalError, JournalSink, JsonlSink, MemoryJournal,
    QodStep, WaveDiagnostics,
};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    BUCKET_BOUNDS_NS, BUCKET_COUNT,
};
pub use span::{trace_epoch_ns, MemoryTraceSink, Span, SpanEvent, TraceSink};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// Escapes `s` as a JSON string literal (with surrounding quotes).
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[derive(Debug, Default)]
struct TelemetryInner {
    // tidy:atomic(enabled: relaxed): advisory on/off flag — callers tolerate a briefly stale read, and no data is published through it
    enabled: AtomicBool,
    registry: MetricsRegistry,
    journal: RwLock<Vec<Arc<dyn JournalSink>>>,
    trace: RwLock<Option<Arc<dyn TraceSink>>>,
    health: Health,
}

/// The unified telemetry handle: registry + journal + trace sink behind
/// one enable/disable switch.
///
/// Cheaply cloneable; all clones share state. Every operation first checks
/// the enabled flag (one relaxed atomic load), so a disabled handle adds
/// near-zero cost to instrumented code.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Arc<TelemetryInner>,
}

impl Telemetry {
    /// A disabled handle (the default): every operation is a no-op.
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled handle with no sinks attached (metrics only).
    #[must_use]
    pub fn enabled() -> Self {
        let t = Self::default();
        t.set_enabled(true);
        t
    }

    /// Whether instrumentation is live.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turns instrumentation on or off at runtime.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    /// The underlying metrics registry (live even while disabled, so
    /// handles can be pre-registered cheaply).
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.inner.registry
    }

    /// Gets or creates a counter. Prefer caching the handle on hot paths.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.inner.registry.counter(name)
    }

    /// Gets or creates a histogram. Prefer caching the handle on hot paths.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.inner.registry.histogram(name)
    }

    /// Gets or creates a gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.inner.registry.gauge(name)
    }

    /// Opens a timing span feeding the histogram named `name`; `tag` is an
    /// optional numeric annotation delivered to the trace sink (use
    /// `u64::MAX`, or the [`span!`] macro's short form, when irrelevant).
    /// Returns an inert guard when disabled.
    pub fn span(&self, name: &'static str, tag: u64) -> Span {
        if !self.is_enabled() {
            return Span::disabled();
        }
        let histogram = self.inner.registry.histogram(name);
        let trace = self.inner.trace.read().clone();
        Span::start(name, tag, histogram, trace)
    }

    /// Attaches a journal sink (every wave's row goes to every attached
    /// sink).
    pub fn add_journal_sink(&self, sink: Arc<dyn JournalSink>) {
        self.inner.journal.write().push(sink);
    }

    /// Sets (or clears) the trace sink receiving completed spans.
    pub fn set_trace_sink(&self, sink: Option<Arc<dyn TraceSink>>) {
        *self.inner.trace.write() = sink;
    }

    /// Emits a retrospective trace-only span for an operation the caller
    /// timed itself: recorded as a child of the current thread's innermost
    /// span, with its start back-dated by `elapsed`. Unlike
    /// [`span`](Self::span) this records no histogram — it exists purely
    /// for the causal tree, and it is dropped (never an orphan root)
    /// outside a traced region.
    pub fn trace_event(&self, name: &'static str, tag: u64, elapsed: std::time::Duration) {
        if !self.is_enabled() {
            return;
        }
        let Some(sink) = self.inner.trace.read().clone() else {
            return;
        };
        span::emit_trace_event(&sink, name, tag, elapsed);
    }

    /// Live engine-health registers (phase, last wave, WAL lag) for the
    /// observability plane's `/healthz`.
    #[must_use]
    pub fn health(&self) -> &Health {
        &self.inner.health
    }

    /// Hands one wave's row to every attached journal sink; `steps` index
    /// its per-step vectors. No-op while disabled. A sink failure never
    /// propagates into the wave: it is counted into
    /// [`names::JOURNAL_ERRORS`] instead, and the later sinks still get
    /// the row.
    pub fn journal(&self, steps: &Arc<[QodStep]>, row: &WaveDiagnostics) {
        if !self.is_enabled() {
            return;
        }
        for sink in self.inner.journal.read().iter() {
            if sink.record(steps, row).is_err() {
                self.inner.registry.counter(names::JOURNAL_ERRORS).incr();
            }
        }
    }

    /// Flushes every journal sink, counting failures into
    /// [`names::JOURNAL_ERRORS`].
    ///
    /// # Errors
    ///
    /// Returns the first sink failure so shutdown paths can surface it;
    /// every sink is flushed even after one fails.
    pub fn flush(&self) -> std::io::Result<()> {
        // Flushing blocks on I/O: do it without holding the sink list.
        let sinks = self.inner.journal.read().clone();
        let mut first_err = None;
        for sink in &sinks {
            if let Err(e) = sink.flush() {
                self.inner.registry.counter(names::JOURNAL_ERRORS).incr();
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Captures a point-in-time snapshot of every instrument.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner.registry.snapshot()
    }
}

/// Conventional instrument names used across the SmartFlux stack, kept in
/// one place so dashboards and tests don't chase string typos.
pub mod names {
    /// Wall-clock latency of one full wave (`Scheduler::run_wave`).
    pub const WAVE_LATENCY: &str = "wms.wave";
    /// End-to-end latency of one step's run under its retry budget
    /// (every attempt, retries included); the step-level trace span.
    pub const STEP_TOTAL_LATENCY: &str = "wms.step_total";
    /// Latency of one step attempt (each retry is its own attempt span,
    /// a child of the step's [`STEP_TOTAL_LATENCY`] span).
    pub const STEP_ATTEMPT_LATENCY: &str = "wms.step_attempt";
    /// Steps executed.
    pub const STEPS_EXECUTED: &str = "wms.steps_executed";
    /// Steps skipped by the trigger policy.
    pub const STEPS_SKIPPED: &str = "wms.steps_skipped";
    /// Steps deferred awaiting a first predecessor execution.
    pub const STEPS_DEFERRED: &str = "wms.steps_deferred";
    /// Retry attempts consumed by failing steps (successful first attempts
    /// count zero).
    pub const STEP_RETRIES: &str = "wms.step_retries";
    /// Steps that failed unrecoverably (retry budget spent).
    pub const STEPS_FAILED: &str = "wms.steps_failed";
    /// Waves aborted on an unrecoverable step failure.
    pub const WAVES_ABORTED: &str = "wms.waves_aborted";
    /// Engine fallbacks to synchronous (always-trigger) execution after a
    /// predictor error or a step failure.
    pub const SDF_FALLBACKS: &str = "engine.sdf_fallbacks";
    /// Latency of one QoD impact computation.
    pub const IMPACT_LATENCY: &str = "engine.impact";
    /// Latency of one simulated output-error computation (training waves).
    pub const ERROR_LATENCY: &str = "engine.error";
    /// Latency of restarting one step's input or output baselines.
    pub const BASELINE_RESET_LATENCY: &str = "engine.baseline_reset";
    /// Latency of the engine's wave-boundary work: training bookkeeping or
    /// the application-wave record, journal, and the durability commit.
    pub const END_WAVE_LATENCY: &str = "engine.end_wave";
    /// Latency of one predictor query.
    pub const PREDICT_LATENCY: &str = "engine.predict";
    /// Latency of one model (re)build, including its out-of-bag test phase.
    pub const TRAIN_LATENCY: &str = "engine.train";
    /// Latency of one ML-kernel fit batch: one forest per label fitted
    /// side by side on one pool of workers — in a training phase's build
    /// with each forest's out-of-bag votes collected as it grows, in a
    /// recovery refit without. [`TRAIN_LATENCY`] adds the engine's
    /// bookkeeping around a training build.
    pub const ML_FIT_LATENCY: &str = "ml.fit_ns";
    /// Wall-clock milliseconds the latest model build took: the per-label
    /// fits and their out-of-bag test phase (0 before the first build and
    /// after a recovery, which restores models unbuilt).
    pub const ML_MODEL_BUILD_MS: &str = "ml.model_build_ms";
    /// Application waves decided by the current model since it was built.
    pub const QOD_MODEL_AGE_WAVES: &str = "qod.model_age_waves";
    /// Data-store writes (puts and deletes that applied): the store
    /// clock's growth since the session was built, published at wave
    /// boundaries.
    pub const STORE_WRITES: &str = "store.writes";
    /// Store read-lock acquisitions that had to block on a writer. (The
    /// `shard_` names date from the sharded store.)
    pub const STORE_SHARD_READ_CONTENTION: &str = "store.shard_read_contention";
    /// Store write-lock acquisitions that had to block on another holder.
    pub const STORE_SHARD_WRITE_CONTENTION: &str = "store.shard_write_contention";
    /// State exports taken (checkpoints and other full-store copies).
    pub const STORE_QUIESCES: &str = "store.quiesces";
    /// Journal sink failures (failed record writes or flushes).
    pub const JOURNAL_ERRORS: &str = "telemetry.journal_errors";
    /// Checkpoints written.
    pub const CHECKPOINTS: &str = "durability.checkpoints";
    /// Successful engine/store recoveries from a durability directory.
    pub const RECOVERIES: &str = "durability.recoveries";
    /// Latency of one checkpoint capture — the store export under the
    /// quiesce plus the engine blob, all in memory (inside
    /// [`CHECKPOINT_WRITE_LATENCY`]).
    pub const CHECKPOINT_CAPTURE_LATENCY: &str = "durability.checkpoint_capture";
    /// Latency of one whole checkpoint: the capture, then encode, file
    /// write, fsync, the swap's link and renames, and the directory sync.
    pub const CHECKPOINT_WRITE_LATENCY: &str = "durability.checkpoint_write";
    /// Waves completed since the last checkpoint that is durable on disk.
    pub const CHECKPOINT_LAG_WAVES: &str = "durability.checkpoint_lag_waves";
    /// Connections accepted by the network plane since start.
    pub const NET_CONNECTIONS: &str = "net.connections";
    /// Connections currently being served by the network plane.
    pub const NET_ACTIVE_CONNECTIONS: &str = "net.active_connections";
    /// SFNP frames successfully read from clients.
    pub const NET_FRAMES_IN: &str = "net.frames_in";
    /// SFNP frames written to clients (responses and error frames).
    pub const NET_FRAMES_OUT: &str = "net.frames_out";
    /// Torn, corrupt or undecodable frames received (each closes its
    /// connection; session state is never touched).
    pub const NET_FRAME_ERRORS: &str = "net.frame_errors";
    /// Submissions rejected with a `Busy` frame because the session's
    /// bounded queue was full.
    pub const NET_BUSY_REJECTIONS: &str = "net.busy_rejections";
    /// Sessions currently open on the engine host.
    pub const NET_SESSIONS_OPEN: &str = "net.sessions_open";
    /// Jobs queued across all session queues (sampled at enqueue/dequeue).
    pub const NET_QUEUE_DEPTH: &str = "net.queue_depth";
    /// Server-side submit→result latency of one `SubmitWave` request
    /// (write application plus the triggered wave, queueing excluded).
    pub const NET_SUBMIT_LATENCY: &str = "net.submit";
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn row() -> WaveDiagnostics {
        WaveDiagnostics {
            wave: 1,
            impacts: vec![],
            decisions: vec![],
            deferred: 0,
            ground_truth: None,
            training: false,
        }
    }

    #[test]
    fn disabled_by_default_and_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        let journal = Arc::new(MemoryJournal::new());
        t.add_journal_sink(journal.clone());
        {
            let s = span!(t, "op");
            assert!(!s.is_recording());
        }
        t.journal(&Arc::from(vec![]), &row());
        assert!(journal.rows().is_empty());
        assert_eq!(t.snapshot().histograms.len(), 0);
    }

    #[test]
    fn enable_at_runtime() {
        let t = Telemetry::disabled();
        t.set_enabled(true);
        {
            let _s = span!(t, "op", tag = 2);
        }
        t.counter("c").incr();
        let snap = t.snapshot();
        assert_eq!(snap.histogram("op").unwrap().count, 1);
        assert_eq!(snap.counter("c"), 1);
    }

    #[test]
    fn trace_sink_sees_spans() {
        let t = Telemetry::enabled();
        let trace = Arc::new(MemoryTraceSink::new());
        t.set_trace_sink(Some(trace.clone()));
        {
            let _s = t.span("traced", 42);
        }
        let events = trace.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].tag, 42);
        assert!(events[0].elapsed < Duration::from_secs(1));
    }

    #[derive(Debug)]
    struct FailingSink;

    impl JournalSink for FailingSink {
        fn record(&self, _steps: &Arc<[QodStep]>, _row: &WaveDiagnostics) -> std::io::Result<()> {
            Err(std::io::Error::other("sink broken"))
        }

        fn flush(&self) -> std::io::Result<()> {
            Err(std::io::Error::other("sink broken"))
        }
    }

    #[test]
    fn sink_failures_feed_the_error_counter() {
        let t = Telemetry::enabled();
        t.add_journal_sink(Arc::new(FailingSink));
        // A healthy sink after the broken one must still receive records.
        let healthy = Arc::new(MemoryJournal::new());
        t.add_journal_sink(healthy.clone());

        t.journal(&Arc::from(vec![]), &row());
        assert_eq!(healthy.rows().len(), 1);
        assert_eq!(t.snapshot().counter(names::JOURNAL_ERRORS), 1);

        let flushed = t.flush();
        assert!(flushed.is_err());
        assert_eq!(t.snapshot().counter(names::JOURNAL_ERRORS), 2);
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\ny\"");
    }
}
