//! Per-step execution statistics — the paper's resource-usage metric.

use crate::graph::StepId;

#[derive(Debug, Clone, Default)]
struct StepStats {
    executed: u64,
    skipped: u64,
    deferred: u64,
    failed: u64,
    retried: u64,
}

/// Counts executions, skips, deferrals, failures and retries per step.
///
/// "Executions performed" is the paper's primary resource metric (Fig. 12):
/// every avoided execution is saved compute, and the latest emitted result
/// remains available immediately.
#[derive(Debug, Clone, Default)]
pub struct ExecutionStats {
    steps: Vec<StepStats>,
    waves: u64,
    waves_aborted: u64,
}

impl ExecutionStats {
    /// Creates statistics for a workflow with `step_count` steps.
    #[must_use]
    pub fn new(step_count: usize) -> Self {
        Self {
            steps: vec![StepStats::default(); step_count],
            waves: 0,
            waves_aborted: 0,
        }
    }

    pub(crate) fn record_execution(&mut self, step: StepId) {
        self.steps[step.index()].executed += 1;
    }

    pub(crate) fn record_skip(&mut self, step: StepId) {
        self.steps[step.index()].skipped += 1;
    }

    pub(crate) fn record_deferral(&mut self, step: StepId) {
        self.steps[step.index()].deferred += 1;
    }

    pub(crate) fn record_failure(&mut self, step: StepId) {
        self.steps[step.index()].failed += 1;
    }

    pub(crate) fn record_retries(&mut self, step: StepId, retries: u64) {
        self.steps[step.index()].retried += retries;
    }

    pub(crate) fn record_wave(&mut self) {
        self.waves += 1;
    }

    pub(crate) fn record_aborted_wave(&mut self) {
        self.waves_aborted += 1;
    }

    /// Number of waves completed successfully (aborted waves not included).
    #[must_use]
    pub fn waves(&self) -> u64 {
        self.waves
    }

    /// Number of waves that aborted on an unrecoverable step failure.
    #[must_use]
    pub fn waves_aborted(&self) -> u64 {
        self.waves_aborted
    }

    /// Number of times `step` executed.
    #[must_use]
    pub fn executions(&self, step: StepId) -> u64 {
        self.steps[step.index()].executed
    }

    /// Number of times `step` was skipped by the policy.
    #[must_use]
    pub fn skips(&self, step: StepId) -> u64 {
        self.steps[step.index()].skipped
    }

    /// Number of times `step` was deferred waiting for a first predecessor
    /// execution.
    #[must_use]
    pub fn deferrals(&self, step: StepId) -> u64 {
        self.steps[step.index()].deferred
    }

    /// Number of times `step` failed unrecoverably (retry budget spent).
    #[must_use]
    pub fn failures(&self, step: StepId) -> u64 {
        self.steps[step.index()].failed
    }

    /// Number of retry attempts `step` consumed (successful first attempts
    /// count zero; a fail-twice-then-succeed wave counts two).
    #[must_use]
    pub fn retries(&self, step: StepId) -> u64 {
        self.steps[step.index()].retried
    }

    /// Total executions across all steps.
    #[must_use]
    pub fn total_executions(&self) -> u64 {
        self.steps.iter().map(|s| s.executed).sum()
    }

    /// Total skips across all steps.
    #[must_use]
    pub fn total_skips(&self) -> u64 {
        self.steps.iter().map(|s| s.skipped).sum()
    }

    /// Total unrecoverable step failures across all steps.
    #[must_use]
    pub fn total_failures(&self) -> u64 {
        self.steps.iter().map(|s| s.failed).sum()
    }

    /// Executions divided by (executions + skips): the paper's *normalised
    /// executions* relative to the synchronous model, for policy-managed
    /// steps. Returns 1.0 when nothing was ever skipped.
    #[must_use]
    pub fn normalized_executions(&self) -> f64 {
        let exec = self.total_executions() as f64;
        let total = exec + self.total_skips() as f64;
        if total == 0.0 {
            1.0
        } else {
            exec / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting() {
        let mut st = ExecutionStats::new(2);
        let a = StepId(0);
        let b = StepId(1);
        st.record_execution(a);
        st.record_execution(a);
        st.record_skip(b);
        st.record_deferral(b);
        st.record_wave();

        assert_eq!(st.executions(a), 2);
        assert_eq!(st.skips(b), 1);
        assert_eq!(st.deferrals(b), 1);
        assert_eq!(st.waves(), 1);
        assert_eq!(st.total_executions(), 2);
    }

    #[test]
    fn failure_and_retry_counting() {
        let mut st = ExecutionStats::new(2);
        let a = StepId(0);
        st.record_retries(a, 2);
        st.record_execution(a);
        st.record_failure(a);
        st.record_aborted_wave();
        st.record_wave();

        assert_eq!(st.retries(a), 2);
        assert_eq!(st.failures(a), 1);
        assert_eq!(st.total_failures(), 1);
        assert_eq!(st.waves(), 1);
        assert_eq!(st.waves_aborted(), 1);
        assert_eq!(st.failures(StepId(1)), 0);
    }

    #[test]
    fn normalized_executions_ratio() {
        let mut st = ExecutionStats::new(1);
        let a = StepId(0);
        st.record_execution(a);
        st.record_skip(a);
        st.record_skip(a);
        st.record_skip(a);
        assert!((st.normalized_executions() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn normalized_executions_defaults_to_one() {
        let st = ExecutionStats::new(1);
        assert_eq!(st.normalized_executions(), 1.0);
    }
}
