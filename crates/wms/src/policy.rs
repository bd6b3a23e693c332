//! Trigger policies: the WMS-adaptation surface SmartFlux plugs into.

use crate::graph::StepId;
use crate::workflow::Workflow;

/// Decides, per wave and per step, whether an eligible step executes.
///
/// The scheduler consults the policy for each step *in topological order*, so
/// by the time a step is queried its predecessors have already executed or
/// been skipped this wave — exactly the information SmartFlux's monitoring
/// needs to have up-to-date input impacts.
///
/// Steps marked [`always_run`](crate::StepInfo::always_run) bypass the
/// policy; steps whose predecessors have never executed are deferred without
/// consulting the policy (§2's "all predecessor steps have completed at
/// least one execution").
pub trait TriggerPolicy: Send {
    /// Called once when a wave begins, before any step is scheduled.
    fn begin_wave(&mut self, _wave: u64, _workflow: &Workflow) {}

    /// Returns `true` if `step` should execute on `wave`.
    fn should_trigger(&mut self, wave: u64, step: StepId, workflow: &Workflow) -> bool;

    /// Called after `step` finished executing on `wave`.
    fn step_completed(&mut self, _wave: u64, _step: StepId, _workflow: &Workflow) {}

    /// Called after `step` was skipped on `wave`.
    fn step_skipped(&mut self, _wave: u64, _step: StepId, _workflow: &Workflow) {}

    /// Called after `step` was deferred on `wave` (a predecessor has never
    /// executed yet).
    fn step_deferred(&mut self, _wave: u64, _step: StepId, _workflow: &Workflow) {}

    /// Called after `step` failed unrecoverably on `wave` (its retry
    /// budget is spent). The wave is about to abort; `end_wave` still
    /// follows, so implementations can rely on a balanced lifecycle.
    fn step_failed(&mut self, _wave: u64, _step: StepId, _workflow: &Workflow) {}

    /// Called once when a wave ends — after its last step *and* after an
    /// abort (following `step_failed`), so `begin_wave`/`end_wave` always
    /// pair up.
    fn end_wave(&mut self, _wave: u64, _workflow: &Workflow) {}
}

/// The Synchronous Data-Flow baseline: every step runs on every wave.
///
/// This is the strict temporal synchronisation model traditional WMSs
/// enforce, and the reference against which SmartFlux's savings and output
/// errors are measured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SynchronousPolicy;

impl TriggerPolicy for SynchronousPolicy {
    fn should_trigger(&mut self, _wave: u64, _step: StepId, _workflow: &Workflow) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn synchronous_policy_always_triggers() {
        let mut b = GraphBuilder::new("w");
        let a = b.add_step("a");
        let w = Workflow::new(b.build().unwrap());
        let mut p = SynchronousPolicy;
        for wave in 1..5 {
            assert!(p.should_trigger(wave, a, &w));
        }
    }
}
