//! Confidence tracking: cumulative error-bound compliance (Fig. 10).

/// Counts the waves in which the measured output error respected the bound,
/// and exposes the running confidence level — "the normalized cumulative
/// sum of correct waves where `maxε` was respected" (§5.2). Two counters:
/// whoever plots the level over time keeps what [`record`](Self::record)
/// returns (`EvalReport::confidence_series`).
///
/// # Example
///
/// ```
/// use smartflux::ConfidenceTracker;
///
/// let mut t = ConfidenceTracker::new();
/// t.record(true);
/// t.record(true);
/// t.record(false);
/// t.record(true);
/// assert_eq!(t.confidence(), 0.75);
/// assert_eq!(t.violations(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConfidenceTracker {
    compliant: u64,
    total: u64,
}

impl ConfidenceTracker {
    /// Creates a tracker with no observations.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one wave's compliance and returns the updated confidence.
    pub fn record(&mut self, compliant: bool) -> f64 {
        self.total += 1;
        if compliant {
            self.compliant += 1;
        }
        self.confidence()
    }

    /// Current confidence level (1.0 before any observation).
    #[must_use]
    pub fn confidence(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.compliant as f64 / self.total as f64
        }
    }

    /// Number of waves observed.
    #[must_use]
    pub fn waves(&self) -> u64 {
        self.total
    }

    /// Number of bound violations observed.
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.total - self.compliant
    }

    /// Decomposes the tracker for checkpoint serialization.
    pub(crate) fn to_parts(&self) -> (u64, u64) {
        (self.compliant, self.total)
    }

    /// Rebuilds a tracker from its checkpointed parts; `None` when they
    /// claim more compliant waves than waves.
    pub(crate) fn from_parts(compliant: u64, total: u64) -> Option<Self> {
        (compliant <= total).then_some(Self { compliant, total })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tracker_is_fully_confident() {
        let t = ConfidenceTracker::new();
        assert_eq!(t.confidence(), 1.0);
        assert_eq!(t.waves(), 0);
    }

    #[test]
    fn record_returns_the_running_ratio() {
        let mut t = ConfidenceTracker::new();
        let series = [true, false, true].map(|compliant| t.record(compliant));
        assert_eq!(series, [1.0, 0.5, 2.0 / 3.0]);
        assert_eq!(t.violations(), 1);
    }

    #[test]
    fn confidence_is_monotone_between_violations() {
        let mut t = ConfidenceTracker::new();
        t.record(false);
        let mut last = t.confidence();
        for _ in 0..10 {
            let c = t.record(true);
            assert!(c >= last);
            last = c;
        }
        assert!(last > 0.9);
    }

    #[test]
    fn all_compliant_stays_at_one() {
        let mut t = ConfidenceTracker::new();
        for _ in 0..5 {
            assert_eq!(t.record(true), 1.0);
        }
    }
}
