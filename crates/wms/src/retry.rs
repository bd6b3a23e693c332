//! Per-step retry policies: bounded, immediate re-execution.
//!
//! Continuous workflows run for thousands of waves; a transient step failure
//! (a flaky connector, a briefly unavailable region server) must not poison
//! the whole run. A [`RetryPolicy`] bounds how many times the scheduler
//! re-executes a failing step within one wave. Retries follow one another
//! at once, on the wave's own thread, so a retried wave's outcome depends
//! only on what its attempts return — never on wall-clock timing.

/// How the scheduler responds to a step failure: at most `max_attempts`
/// executions per wave, run back to back.
///
/// The default policy ([`RetryPolicy::none`]) performs a single attempt —
/// the pre-fault-tolerance behaviour.
///
/// # Example
///
/// ```
/// use smartflux_wms::RetryPolicy;
///
/// let policy = RetryPolicy::attempts(3);
/// assert_eq!(policy.max_attempts(), 3);
/// assert_eq!(RetryPolicy::default().max_attempts(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    max_attempts: u32,
}

impl RetryPolicy {
    /// No retries: one attempt (the default).
    #[must_use]
    pub const fn none() -> Self {
        Self { max_attempts: 1 }
    }

    /// Up to `max_attempts` immediate attempts.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero — a step must run at least once.
    #[must_use]
    pub fn attempts(max_attempts: u32) -> Self {
        assert!(max_attempts >= 1, "a step needs at least one attempt");
        Self { max_attempts }
    }

    /// Maximum number of executions per wave (at least 1).
    #[must_use]
    pub const fn max_attempts(&self) -> u32 {
        self.max_attempts
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_single_attempt() {
        assert_eq!(RetryPolicy::default(), RetryPolicy::none());
        assert_eq!(RetryPolicy::default().max_attempts(), 1);
        assert_eq!(RetryPolicy::attempts(4).max_attempts(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_rejected() {
        let _ = RetryPolicy::attempts(0);
    }
}
