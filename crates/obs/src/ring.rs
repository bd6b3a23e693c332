//! Bounded ring buffers collecting telemetry streams for live serving.
//!
//! Both rings are one ring: a fixed number of slots claimed by a single
//! `fetch_add` on a head counter, each slot behind its own tiny mutex. Writers never block each other (distinct claims hit distinct
//! slots; a lapped writer only contends with the reader on one slot), the
//! memory footprint is fixed, and the reader reconstructs the tail in
//! oldest-to-newest order from the head counter.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use smartflux_telemetry::{JournalSink, SpanEvent, TraceSink, WaveDecisionRecord};

/// The claim-counter ring both public rings are.
#[derive(Debug)]
struct Ring<T> {
    slots: Vec<Mutex<Option<T>>>,
    // tidy:atomic(head: acq-rel): claim counter — acq-rel claims pair with acquire reads so a reader never walks slots ahead of the claims it observed
    head: AtomicU64,
}

impl<T: Clone> Ring<T> {
    fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
        }
    }

    fn push(&self, item: T) {
        let claim = self.head.fetch_add(1, Ordering::AcqRel);
        let idx = (claim % self.slots.len() as u64) as usize;
        *self.slots[idx].lock() = Some(item);
    }

    fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// The retained items, oldest first. Concurrent writers may lap slots
    /// while this runs; the result is a best-effort tail, which is all a
    /// live endpoint needs.
    fn items(&self) -> Vec<T> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let mut out = Vec::with_capacity(self.slots.len());
        // Oldest surviving claim is `head - cap` (or 0 before wrapping).
        let start = head.saturating_sub(cap);
        for claim in start..head {
            let idx = (claim % cap) as usize;
            if let Some(item) = self.slots[idx].lock().clone() {
                out.push(item);
            }
        }
        out
    }
}

/// A lock-free bounded ring of completed [`SpanEvent`]s.
///
/// The production [`TraceSink`]: attach with
/// [`Telemetry::set_trace_sink`](smartflux_telemetry::Telemetry::set_trace_sink)
/// and the last `capacity` spans stay available for `/trace` exports and
/// invariant checks, no matter how long the run is.
#[derive(Debug)]
pub struct RingTraceSink(Ring<SpanEvent>);

impl RingTraceSink {
    /// Creates a ring keeping the last `capacity` spans (min 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self(Ring::with_capacity(capacity))
    }

    /// Maximum number of retained spans.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.0.slots.len()
    }

    /// Total spans ever recorded (not the retained count).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.0.recorded()
    }

    /// Copies the retained spans out, oldest first (a best-effort tail
    /// under concurrent writers).
    #[must_use]
    pub fn events(&self) -> Vec<SpanEvent> {
        self.0.items()
    }
}

impl TraceSink for RingTraceSink {
    fn span_completed(&self, event: &SpanEvent) {
        self.0.push(event.clone());
    }
}

/// A bounded ring of recent [`WaveDecisionRecord`]s.
///
/// Attach as a journal sink and the `/waves` endpoint can serve the tail
/// of the wave-decision journal without any file I/O.
#[derive(Debug)]
pub struct RingJournal(Ring<WaveDecisionRecord>);

impl RingJournal {
    /// Creates a ring keeping the last `capacity` records (min 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self(Ring::with_capacity(capacity))
    }

    /// Copies the retained records out, oldest first.
    #[must_use]
    pub fn records(&self) -> Vec<WaveDecisionRecord> {
        self.0.items()
    }
}

impl JournalSink for RingJournal {
    fn record(&self, record: &WaveDecisionRecord) -> std::io::Result<()> {
        self.0.push(record.clone());
        Ok(())
    }

    fn flush(&self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(tag: u64) -> SpanEvent {
        SpanEvent {
            name: "test.span",
            tag,
            trace_id: 1,
            span_id: tag + 1,
            parent_id: 0,
            start_ns: tag,
            elapsed: Duration::from_micros(1),
        }
    }

    #[test]
    fn ring_keeps_the_newest_tail_in_order() {
        let ring = RingTraceSink::with_capacity(4);
        for tag in 0..10 {
            ring.span_completed(&span(tag));
        }
        let tags: Vec<u64> = ring.events().iter().map(|e| e.tag).collect();
        assert_eq!(tags, vec![6, 7, 8, 9]);
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.capacity(), 4);
    }

    #[test]
    fn ring_under_capacity_returns_everything() {
        let ring = RingTraceSink::with_capacity(8);
        for tag in 0..3 {
            ring.span_completed(&span(tag));
        }
        assert_eq!(ring.events().len(), 3);
    }

    fn record(wave: u64) -> WaveDecisionRecord {
        WaveDecisionRecord {
            wave,
            phase: "application",
            step: "agg".into(),
            step_index: 0,
            impacts: vec![0.1],
            predicted: vec![true],
            executed: true,
            deferred: 0,
            confidence: 1.0,
            max_epsilon: 0.1,
            measured_epsilon: None,
        }
    }

    #[test]
    fn concurrent_writers_never_lose_the_ring() {
        /// Four threads, 100 distinct pushes each.
        fn hammer(push: impl Fn(u64) + Sync) {
            std::thread::scope(|scope| {
                for t in 0..4 {
                    let push = &push;
                    scope.spawn(move || (0..100).for_each(|i| push(t * 1000 + i)));
                }
            });
        }
        let spans = RingTraceSink::with_capacity(64);
        hammer(|tag| spans.span_completed(&span(tag)));
        assert_eq!(spans.recorded(), 400);
        assert_eq!(spans.events().len(), 64);

        let journal = RingJournal::with_capacity(64);
        hammer(|wave| journal.record(&record(wave)).unwrap());
        assert_eq!(journal.0.recorded(), 400);
        assert_eq!(journal.records().len(), 64);
    }

    #[test]
    fn journal_ring_retains_records() {
        let ring = RingJournal::with_capacity(2);
        for wave in 1..=3u64 {
            ring.record(&record(wave)).unwrap();
        }
        let waves: Vec<u64> = ring.records().iter().map(|r| r.wave).collect();
        assert_eq!(waves, vec![2, 3]);
        ring.flush().unwrap();
    }
}
