//! The virtual clock: simulated time that never reads the host clock.
//!
//! Generated workloads are *continuous*: their write distributions drift
//! and spike over time. Realising that time axis with `Instant::now()`
//! would make every run unrepeatable, so the harness threads a
//! [`VirtualClock`] through the generator instead — a logical nanosecond
//! counter advanced by fixed per-wave and per-write increments. Two runs
//! of the same scenario observe exactly the same timeline, which is what
//! lets the determinism oracle demand bit-identical stores.

/// A deterministic logical clock, in virtual nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtualClock {
    now_ns: u64,
    wave_quantum_ns: u64,
    write_quantum_ns: u64,
}

impl VirtualClock {
    /// A clock starting at zero that advances `wave_quantum_ns` per wave
    /// boundary and `write_quantum_ns` per generated write.
    #[must_use]
    pub fn new(wave_quantum_ns: u64, write_quantum_ns: u64) -> Self {
        Self {
            now_ns: 0,
            wave_quantum_ns: wave_quantum_ns.max(1),
            write_quantum_ns,
        }
    }

    /// Current virtual time in nanoseconds.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Advances past one wave boundary and returns the new time.
    pub fn tick_wave(&mut self) -> u64 {
        self.now_ns = self.now_ns.saturating_add(self.wave_quantum_ns);
        self.now_ns
    }

    /// Advances past one generated write and returns the new time.
    pub fn tick_write(&mut self) -> u64 {
        self.now_ns = self.now_ns.saturating_add(self.write_quantum_ns);
        self.now_ns
    }

    /// The virtual timestamp of wave `wave` (waves are numbered from 1),
    /// ignoring write-level ticks — a pure function used by stateless
    /// generator closures that cannot share a mutable clock.
    #[must_use]
    pub fn wave_time_secs(&self, wave: u64) -> f64 {
        (wave.saturating_mul(self.wave_quantum_ns)) as f64 / 1e9
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        // One wave per virtual second, one microsecond per write.
        Self::new(1_000_000_000, 1_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_deterministic() {
        let mut a = VirtualClock::new(10, 2);
        let mut b = VirtualClock::new(10, 2);
        for _ in 0..5 {
            a.tick_wave();
            a.tick_write();
            b.tick_wave();
            b.tick_write();
        }
        assert_eq!(a, b);
        assert_eq!(a.now_ns(), 5 * 12);
    }

    #[test]
    fn wave_time_is_a_pure_function() {
        let clock = VirtualClock::default();
        assert_eq!(clock.wave_time_secs(3), 3.0);
        assert_eq!(clock.wave_time_secs(3), 3.0);
    }

    #[test]
    fn zero_quantum_is_clamped() {
        let mut clock = VirtualClock::new(0, 0);
        clock.tick_wave();
        assert_eq!(clock.now_ns(), 1);
        clock.tick_write();
        assert_eq!(clock.now_ns(), 1, "write quantum may be zero");
    }
}
