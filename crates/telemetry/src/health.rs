//! Engine health state served by the observability plane's `/healthz`.
//!
//! A tiny always-on bundle of atomics the engine refreshes at wave
//! boundaries: phase, last completed wave (with its timestamp), the
//! checkpoint lag in waves, and the model's build time and age. Living in the telemetry crate keeps the server crate
//! free of engine dependencies — the engine writes through its
//! [`Telemetry`](crate::Telemetry) handle, the server reads a
//! [`HealthSnapshot`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::RwLock;

use crate::span::trace_epoch_ns;

/// Live health registers shared through a [`Telemetry`](crate::Telemetry)
/// handle.
#[derive(Debug)]
pub struct Health {
    phase: RwLock<&'static str>,
    // tidy:atomic(last_wave: relaxed): liveness gauge sampled by /health — a stale value only ages the report by one poll
    last_wave: AtomicU64,
    /// Trace-epoch nanoseconds of the last `note_wave`; `0` = never.
    // tidy:atomic(last_wave_at_ns: relaxed): liveness gauge sampled by /health — a stale value only ages the report by one poll
    last_wave_at_ns: AtomicU64,
    // tidy:atomic(checkpoint_lag_waves: relaxed): liveness gauge sampled by /health — a stale value only ages the report by one poll
    checkpoint_lag_waves: AtomicU64,
    /// Configured waves between checkpoints; `0` = no durability.
    // tidy:atomic(checkpoint_interval: relaxed): liveness gauge sampled by /health — a stale value only ages the report by one poll
    checkpoint_interval: AtomicU64,
    // tidy:atomic(model_build_ms: relaxed): liveness gauge sampled by /health — a stale value only ages the report by one poll
    model_build_ms: AtomicU64,
    // tidy:atomic(model_age_waves: relaxed): liveness gauge sampled by /health — a stale value only ages the report by one poll
    model_age_waves: AtomicU64,
}

impl Default for Health {
    fn default() -> Self {
        Self {
            phase: RwLock::new("idle"),
            last_wave: AtomicU64::new(0),
            last_wave_at_ns: AtomicU64::new(0),
            checkpoint_lag_waves: AtomicU64::new(0),
            checkpoint_interval: AtomicU64::new(0),
            model_build_ms: AtomicU64::new(0),
            model_age_waves: AtomicU64::new(0),
        }
    }
}

impl Health {
    /// Sets the engine phase label (`"training"`, `"application"`, ...).
    pub fn set_phase(&self, phase: &'static str) {
        *self.phase.write() = phase;
    }

    /// Records that wave `wave` just completed (stamps the current time).
    pub fn note_wave(&self, wave: u64) {
        self.last_wave.store(wave, Ordering::Relaxed);
        self.last_wave_at_ns
            .store(trace_epoch_ns().max(1), Ordering::Relaxed);
    }

    /// Publishes how many waves completed since the last durable
    /// checkpoint, beside the configured `interval` between checkpoints.
    pub fn set_checkpoint_lag(&self, waves: u64, interval: u64) {
        self.checkpoint_lag_waves.store(waves, Ordering::Relaxed);
        self.checkpoint_interval.store(interval, Ordering::Relaxed);
    }

    /// Publishes how long the latest model build took.
    pub fn set_model_build_ms(&self, ms: u64) {
        self.model_build_ms.store(ms, Ordering::Relaxed);
    }

    /// Publishes how many application waves the current model has decided.
    pub fn set_model_age_waves(&self, waves: u64) {
        self.model_age_waves.store(waves, Ordering::Relaxed);
    }

    /// Captures a point-in-time health view.
    #[must_use]
    pub fn snapshot(&self) -> HealthSnapshot {
        let at = self.last_wave_at_ns.load(Ordering::Relaxed);
        let last_wave_age = if at == 0 {
            None
        } else {
            Some(Duration::from_nanos(trace_epoch_ns().saturating_sub(at)))
        };
        HealthSnapshot {
            phase: *self.phase.read(),
            last_wave: self.last_wave.load(Ordering::Relaxed),
            last_wave_age,
            checkpoint_lag_waves: self.checkpoint_lag_waves.load(Ordering::Relaxed),
            checkpoint_interval: self.checkpoint_interval.load(Ordering::Relaxed),
            model_build_ms: self.model_build_ms.load(Ordering::Relaxed),
            model_age_waves: self.model_age_waves.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time view of [`Health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Engine phase label; `"idle"` until the engine reports one.
    pub phase: &'static str,
    /// Last completed wave number (0 = none yet).
    pub last_wave: u64,
    /// Time since the last completed wave, `None` before the first.
    pub last_wave_age: Option<Duration>,
    /// Waves completed since the last durable checkpoint.
    pub checkpoint_lag_waves: u64,
    /// Configured waves between checkpoints (0 = durability off).
    pub checkpoint_interval: u64,
    /// Milliseconds the latest model build took (0 = none this process).
    pub model_build_ms: u64,
    /// Application waves decided since the model was built.
    pub model_age_waves: u64,
}

impl HealthSnapshot {
    /// Whether checkpoints have stopped landing: more than two intervals
    /// of waves completed since the last durable one. Every such wave
    /// would be re-executed after a crash.
    #[must_use]
    pub fn checkpoints_overdue(&self) -> bool {
        self.checkpoint_interval > 0 && self.checkpoint_lag_waves > 2 * self.checkpoint_interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_report_idle() {
        let h = Health::default();
        let s = h.snapshot();
        assert_eq!(s.phase, "idle");
        assert_eq!(s.last_wave, 0);
        assert!(s.last_wave_age.is_none());
        assert_eq!(s.checkpoint_lag_waves, 0);
    }

    #[test]
    fn wave_notes_stamp_an_age() {
        let h = Health::default();
        h.set_phase("application");
        h.note_wave(42);
        let s = h.snapshot();
        assert_eq!(s.phase, "application");
        assert_eq!(s.last_wave, 42);
        assert!(s.last_wave_age.is_some());
        assert!(s.last_wave_age.unwrap() < Duration::from_secs(60));
    }

    #[test]
    fn checkpoints_are_overdue_past_two_intervals() {
        let h = Health::default();
        // No durability configured: never overdue.
        assert!(!h.snapshot().checkpoints_overdue());
        h.set_checkpoint_lag(40, 20);
        assert!(!h.snapshot().checkpoints_overdue());
        h.set_checkpoint_lag(41, 20);
        assert!(h.snapshot().checkpoints_overdue());
    }
}
