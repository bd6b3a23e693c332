//! Lightweight spans: RAII guards that time a region of code into a
//! histogram and, optionally, a trace sink.
//!
//! A [`Span`] costs one `Instant::now()` on creation and one histogram
//! record on drop. When telemetry is disabled the guard is inert — no
//! clock read, no allocation.
//!
//! # Causal tracing
//!
//! When a [`TraceSink`] is attached, every span additionally carries a
//! **trace identity**: a `trace_id` shared by all spans of one causal
//! tree (one wave, in SmartFlux), a unique `span_id`, and the `parent_id`
//! of the enclosing span. Parentage is tracked through a per-thread
//! context stack: a span opened while another span is live on the same
//! thread becomes its child; a span opened with no live context starts a
//! new trace and becomes its root. A span opened on another thread does
//! not see this stack, so traced work stays on the thread that opened its
//! parent span.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::metrics::Histogram;

/// A destination for completed span events.
pub trait TraceSink: Send + Sync + fmt::Debug {
    /// Called once per completed span.
    fn span_completed(&self, event: &SpanEvent);
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Instrument/operation name (e.g. `"wms.wave"`).
    pub name: &'static str,
    /// Optional numeric tag (e.g. the wave number), `u64::MAX` when unset.
    pub tag: u64,
    /// Identity of the causal tree this span belongs to; `0` when the
    /// span completed without a trace sink attached (untraced).
    pub trace_id: u64,
    /// Unique identity of this span; `0` when untraced.
    pub span_id: u64,
    /// The enclosing span's id, `0` for a trace root.
    pub parent_id: u64,
    /// Start time as nanoseconds since the process trace epoch
    /// ([`trace_epoch_ns`]); `0` when untraced.
    pub start_ns: u64,
    /// Wall-clock duration of the span.
    pub elapsed: Duration,
}

impl SpanEvent {
    /// Whether the event carries trace identity (a sink was attached).
    #[must_use]
    pub fn is_traced(&self) -> bool {
        self.trace_id != 0
    }

    /// Whether this span is the root of its trace.
    #[must_use]
    pub fn is_root(&self) -> bool {
        self.is_traced() && self.parent_id == 0
    }
}

/// Identity counter shared by span ids and trace ids; `0` is reserved for
/// "untraced"/"no parent".
// tidy:atomic(NEXT_ID: relaxed): id allocator — uniqueness is all that matters, the fetch_add's atomicity alone provides it
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// The process-wide instant all `start_ns` offsets are measured from,
/// fixed on first use.
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds elapsed since the process trace epoch.
///
/// All [`SpanEvent::start_ns`] values share this origin, so exporters can
/// place spans from different threads on one timeline without reading any
/// ambient clock themselves.
#[must_use]
pub fn trace_epoch_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A thread's position in the causal tree: the trace it is inside and
/// the innermost live span, parent of the next span opened there.
#[derive(Clone, Copy)]
struct TraceContext {
    /// The trace the thread is inside.
    trace_id: u64,
    /// The innermost live span.
    parent_span: u64,
}

thread_local! {
    /// Stack of live span identities on this thread; the top entry is the
    /// parent of the next span opened here.
    static CONTEXT: RefCell<Vec<TraceContext>> = const { RefCell::new(Vec::new()) };
}

/// The innermost live context on this thread, if any.
fn current_context() -> Option<TraceContext> {
    CONTEXT.with(|c| c.borrow().last().copied())
}

/// Pushes `entry` and returns it for symmetry with [`pop_context`].
fn push_context(entry: TraceContext) {
    CONTEXT.with(|c| c.borrow_mut().push(entry));
}

/// Removes the topmost entry whose span matches `span_id`. Searching from
/// the top tolerates out-of-order span drops without corrupting the rest
/// of the stack.
fn pop_context(span_id: u64) {
    CONTEXT.with(|c| {
        let mut stack = c.borrow_mut();
        if let Some(pos) = stack.iter().rposition(|e| e.parent_span == span_id) {
            stack.remove(pos);
        }
    });
}

/// A trace sink retaining every event in memory (tests, inspection).
#[derive(Debug, Default)]
pub struct MemoryTraceSink {
    events: Mutex<Vec<SpanEvent>>,
}

impl MemoryTraceSink {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies out all completed spans.
    #[must_use]
    pub fn events(&self) -> Vec<SpanEvent> {
        self.events.lock().clone()
    }

    /// Number of completed spans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether no span has completed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

impl TraceSink for MemoryTraceSink {
    fn span_completed(&self, event: &SpanEvent) {
        self.events.lock().push(event.clone());
    }
}

/// Trace identity assigned to a live traced span.
struct SpanIds {
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    start_ns: u64,
}

struct ActiveSpan {
    name: &'static str,
    tag: u64,
    start: Instant,
    histogram: Arc<Histogram>,
    trace: Option<(Arc<dyn TraceSink>, SpanIds)>,
}

/// An RAII timing guard; records its lifetime on drop.
///
/// Obtained from [`Telemetry::span`](crate::Telemetry::span) or the
/// [`span!`](crate::span!) macro. Inert (all no-ops) when telemetry is
/// disabled. With a [`TraceSink`] attached the span also carries trace
/// identity and registers itself as the current parent on this thread.
#[must_use = "a span records its timing when dropped"]
pub struct Span {
    inner: Option<ActiveSpan>,
}

impl Span {
    /// A span that records nothing.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    pub(crate) fn start(
        name: &'static str,
        tag: u64,
        histogram: Arc<Histogram>,
        trace: Option<Arc<dyn TraceSink>>,
    ) -> Self {
        let trace = trace.map(|sink| {
            let span_id = next_id();
            let (trace_id, parent_id) = match current_context() {
                Some(ctx) => (ctx.trace_id, ctx.parent_span),
                None => (next_id(), 0),
            };
            push_context(TraceContext {
                trace_id,
                parent_span: span_id,
            });
            (
                sink,
                SpanIds {
                    trace_id,
                    span_id,
                    parent_id,
                    start_ns: trace_epoch_ns(),
                },
            )
        });
        Self {
            inner: Some(ActiveSpan {
                name,
                tag,
                start: Instant::now(),
                histogram,
                trace,
            }),
        }
    }

    /// Whether this span is live (telemetry enabled at creation).
    #[must_use]
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(active) = self.inner.take() {
            let elapsed = active.start.elapsed();
            active.histogram.record(elapsed);
            if let Some((sink, ids)) = &active.trace {
                pop_context(ids.span_id);
                sink.span_completed(&SpanEvent {
                    name: active.name,
                    tag: active.tag,
                    trace_id: ids.trace_id,
                    span_id: ids.span_id,
                    parent_id: ids.parent_id,
                    start_ns: ids.start_ns,
                    elapsed,
                });
            }
        }
    }
}

/// Emits a retrospective child span: an operation that already happened
/// (its `elapsed` was measured by the caller) recorded into `sink` under
/// the current thread context. Returns silently when the thread is not
/// inside a trace, so after-the-fact events can never create orphan
/// roots.
pub(crate) fn emit_trace_event(
    sink: &Arc<dyn TraceSink>,
    name: &'static str,
    tag: u64,
    elapsed: Duration,
) {
    let Some(ctx) = current_context() else {
        return;
    };
    let end_ns = trace_epoch_ns();
    let elapsed_ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
    sink.span_completed(&SpanEvent {
        name,
        tag,
        trace_id: ctx.trace_id,
        span_id: next_id(),
        parent_id: ctx.parent_span,
        start_ns: end_ns.saturating_sub(elapsed_ns),
        elapsed,
    });
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(a) => f
                .debug_struct("Span")
                .field("name", &a.name)
                .field("tag", &a.tag)
                .finish(),
            None => f.write_str("Span(disabled)"),
        }
    }
}

/// Opens a [`Span`] on a [`Telemetry`](crate::Telemetry) handle.
///
/// ```
/// use smartflux_telemetry::{span, Telemetry};
///
/// let telemetry = Telemetry::enabled();
/// {
///     let _guard = span!(telemetry, "wave", tag = 7);
/// } // recorded into the "wave" histogram here
/// assert_eq!(telemetry.snapshot().histogram("wave").unwrap().count, 1);
/// ```
#[macro_export]
macro_rules! span {
    ($telemetry:expr, $name:expr) => {
        $telemetry.span($name, u64::MAX)
    };
    ($telemetry:expr, $name:expr, tag = $tag:expr) => {
        $telemetry.span($name, $tag)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_into_histogram_and_trace() {
        let h = Arc::new(Histogram::default());
        let trace = Arc::new(MemoryTraceSink::new());
        {
            let s = Span::start("op", 3, Arc::clone(&h), Some(trace.clone() as _));
            assert!(s.is_recording());
        }
        assert_eq!(h.count(), 1);
        let events = trace.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "op");
        assert_eq!(events[0].tag, 3);
        assert!(events[0].is_traced());
        assert!(events[0].is_root());
    }

    #[test]
    fn disabled_span_is_inert() {
        let s = Span::disabled();
        assert!(!s.is_recording());
        drop(s);
    }

    #[test]
    fn nested_spans_form_a_tree() {
        let h = Arc::new(Histogram::default());
        let trace = Arc::new(MemoryTraceSink::new());
        {
            let _root = Span::start("root", 1, Arc::clone(&h), Some(trace.clone() as _));
            {
                let _child = Span::start("child", 2, Arc::clone(&h), Some(trace.clone() as _));
                let _grandchild =
                    Span::start("grandchild", 3, Arc::clone(&h), Some(trace.clone() as _));
            }
            let _sibling = Span::start("sibling", 4, Arc::clone(&h), Some(trace.clone() as _));
        }
        let events = trace.events();
        assert_eq!(events.len(), 4);
        let by_name = |n: &str| events.iter().find(|e| e.name == n).unwrap();
        let root = by_name("root");
        assert!(root.is_root());
        assert_eq!(by_name("child").parent_id, root.span_id);
        assert_eq!(by_name("sibling").parent_id, root.span_id);
        assert_eq!(by_name("grandchild").parent_id, by_name("child").span_id);
        assert!(events.iter().all(|e| e.trace_id == root.trace_id));
        // Start offsets are monotone with nesting.
        assert!(by_name("child").start_ns >= root.start_ns);
    }

    #[test]
    fn untraced_spans_have_zero_identity() {
        let h = Arc::new(Histogram::default());
        // No sink: spans must not pay for (or leak) context entries.
        {
            let _s = Span::start("plain", 1, Arc::clone(&h), None);
            assert!(current_context().is_none());
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn sequential_roots_get_distinct_traces() {
        let h = Arc::new(Histogram::default());
        let trace = Arc::new(MemoryTraceSink::new());
        for tag in 0..3 {
            let _s = Span::start("wave", tag, Arc::clone(&h), Some(trace.clone() as _));
        }
        let events = trace.events();
        assert_eq!(events.len(), 3);
        let mut ids: Vec<u64> = events.iter().map(|e| e.trace_id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 3, "each root starts its own trace");
    }

    #[test]
    fn emit_trace_event_requires_a_live_context() {
        let trace: Arc<dyn TraceSink> = Arc::new(MemoryTraceSink::new());
        // Outside any span: nothing is emitted (no orphan roots).
        emit_trace_event(&trace, "op", 0, Duration::from_micros(5));
        let mem = Arc::new(MemoryTraceSink::new());
        let sink: Arc<dyn TraceSink> = mem.clone();
        let h = Arc::new(Histogram::default());
        {
            let _root = Span::start("root", 0, Arc::clone(&h), Some(mem.clone() as _));
            emit_trace_event(&sink, "op", 7, Duration::from_micros(5));
        }
        let events = mem.events();
        assert_eq!(events.len(), 2);
        let op = events.iter().find(|e| e.name == "op").unwrap();
        let root = events.iter().find(|e| e.name == "root").unwrap();
        assert_eq!(op.parent_id, root.span_id);
        assert_eq!(op.trace_id, root.trace_id);
    }
}
