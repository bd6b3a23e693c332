//! Scheduler notifications (the Oozie↔SmartFlux notification surface).

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::graph::StepId;

/// An event emitted by the scheduler as a wave progresses.
///
/// The paper extends Oozie with a notification scheme over Java RMI: Oozie
/// notifies SmartFlux when a step finishes, and SmartFlux signals when a step
/// should be triggered. These events are the equivalent surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedulerEvent {
    /// A wave is starting.
    WaveStarted {
        /// Wave number, starting at 1.
        wave: u64,
    },
    /// A step was triggered for execution.
    StepTriggered {
        /// Wave number.
        wave: u64,
        /// The triggered step.
        step: StepId,
    },
    /// A step completed its execution.
    StepCompleted {
        /// Wave number.
        wave: u64,
        /// The completed step.
        step: StepId,
    },
    /// A step was skipped (policy declined to trigger it).
    StepSkipped {
        /// Wave number.
        wave: u64,
        /// The skipped step.
        step: StepId,
    },
    /// A step was deferred because not all predecessors have completed a
    /// first execution yet.
    StepDeferred {
        /// Wave number.
        wave: u64,
        /// The deferred step.
        step: StepId,
    },
    /// A step attempt failed and the scheduler is about to re-execute it
    /// under the step's [`RetryPolicy`](crate::RetryPolicy).
    StepRetried {
        /// Wave number.
        wave: u64,
        /// The retried step.
        step: StepId,
        /// The attempt number about to run (the first retry is attempt 2).
        attempt: u32,
    },
    /// A step exhausted its retry budget and failed for the wave.
    StepFailed {
        /// Wave number.
        wave: u64,
        /// The failed step.
        step: StepId,
        /// Total attempts performed (1 when retries are disabled).
        attempts: u32,
    },
    /// A wave finished with every triggered step completed.
    WaveCompleted {
        /// Wave number.
        wave: u64,
        /// Number of steps executed during the wave.
        executed: usize,
        /// Number of steps skipped during the wave.
        skipped: usize,
        /// Number of steps deferred during the wave.
        deferred: usize,
    },
    /// A wave ended because a step failed unrecoverably.
    ///
    /// Exactly one of `WaveCompleted` or `WaveAborted` closes every
    /// `WaveStarted`; after an abort the scheduler is consistent and the
    /// next `run_wave` starts a clean wave.
    WaveAborted {
        /// Wave number.
        wave: u64,
        /// Steps that executed successfully before the abort.
        executed: usize,
        /// Steps skipped before the abort.
        skipped: usize,
        /// Steps deferred before the abort.
        deferred: usize,
        /// The step whose failure ended the wave.
        failed: StepId,
    },
}

/// A subscription to scheduler events.
///
/// Obtained from [`Scheduler::subscribe`]; events are buffered without bound
/// until read.
///
/// [`Scheduler::subscribe`]: crate::Scheduler::subscribe
#[derive(Debug)]
pub struct EventSubscription {
    receiver: Receiver<SchedulerEvent>,
}

impl EventSubscription {
    /// Drains all events observed so far.
    pub fn drain(&self) -> Vec<SchedulerEvent> {
        let mut out = Vec::new();
        while let Ok(e) = self.receiver.try_recv() {
            out.push(e);
        }
        out
    }
}

/// Internal fan-out of scheduler events to subscribers.
#[derive(Debug, Default)]
pub(crate) struct EventBus {
    senders: Vec<Sender<SchedulerEvent>>,
}

impl EventBus {
    pub(crate) fn subscribe(&mut self) -> EventSubscription {
        let (tx, rx) = unbounded();
        self.senders.push(tx);
        EventSubscription { receiver: rx }
    }

    pub(crate) fn publish(&mut self, event: &SchedulerEvent) {
        // Drop subscribers whose receivers are gone.
        self.senders.retain(|s| s.send(event.clone()).is_ok());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_reaches_all_subscribers() {
        let mut bus = EventBus::default();
        let a = bus.subscribe();
        let b = bus.subscribe();
        bus.publish(&SchedulerEvent::WaveStarted { wave: 1 });
        assert_eq!(a.drain().len(), 1);
        assert_eq!(b.drain().len(), 1);
    }

    #[test]
    fn dropped_subscribers_are_pruned() {
        let mut bus = EventBus::default();
        let a = bus.subscribe();
        {
            let _b = bus.subscribe();
        }
        bus.publish(&SchedulerEvent::WaveStarted { wave: 1 });
        assert_eq!(bus.senders.len(), 1);
        assert_eq!(a.drain(), vec![SchedulerEvent::WaveStarted { wave: 1 }]);
    }
}
