//! Deterministic fault injection for chaos-testing wave execution.
//!
//! [`FaultyStep`] wraps any [`Step`] and injects failures according to a
//! [`FaultSchedule`]. Schedules are pure functions of `(seed, wave,
//! attempt)` — no ambient clock or RNG — so a chaos run is exactly
//! reproducible: the same seed produces the same faults on every execution,
//! which is what lets tests assert byte-identical scheduling decisions
//! between faulty and fault-free runs.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::step::{Step, StepContext, StepError};

/// When and how a [`FaultyStep`] misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSchedule {
    /// The first `failures` executions fail (across waves), then every
    /// execution succeeds — the classic transient-fault shape behind the
    /// "fail twice, succeed on the third attempt" retry tests.
    FailNThenSucceed {
        /// Total number of leading executions that fail.
        failures: u32,
    },
    /// On every wave where `wave % every == 0`, the first `failures`
    /// attempts of that wave fail; later attempts (and other waves)
    /// succeed.
    EveryKthWave {
        /// Wave period of the fault.
        every: u64,
        /// Consecutive failing attempts on a faulty wave.
        failures: u32,
    },
    /// Seeded per-wave transient faults: on each wave a deterministic draw
    /// from `(seed, wave)` decides whether the step is faulty this wave
    /// (with probability `fail_percent`/100) and, if so, how many leading
    /// attempts fail (1 up to `max_consecutive`). A retry budget of
    /// `max_consecutive + 1` attempts therefore always recovers.
    Seeded {
        /// Seed of the per-wave draws.
        seed: u64,
        /// Probability of a faulty wave, in percent (0–100).
        fail_percent: u8,
        /// Most consecutive attempts that can fail on one wave (≥ 1).
        max_consecutive: u32,
    },
}

impl FaultSchedule {
    /// The number of leading attempts this schedule fails on `wave`
    /// (ignoring [`FaultSchedule::FailNThenSucceed`] history).
    /// Exposed so chaos tests can compute expected retry counts.
    #[must_use]
    pub fn planned_failures(&self, wave: u64) -> u32 {
        match *self {
            FaultSchedule::FailNThenSucceed { .. } => 0,
            FaultSchedule::EveryKthWave { every, failures } => {
                if every > 0 && wave.is_multiple_of(every) {
                    failures
                } else {
                    0
                }
            }
            FaultSchedule::Seeded {
                seed,
                fail_percent,
                max_consecutive,
            } => {
                let draw = mix(seed, wave);
                if draw % 100 < u64::from(fail_percent) {
                    1 + ((draw >> 32) % u64::from(max_consecutive.max(1))) as u32
                } else {
                    0
                }
            }
        }
    }
}

#[derive(Debug, Default)]
struct FaultState {
    /// Total injected failures so far (drives `FailNThenSucceed`).
    total_failures: u64,
    /// Wave of the most recent execution, for per-wave attempt counting.
    wave: u64,
    /// Executions observed on `wave` so far.
    attempts_this_wave: u32,
}

/// A [`Step`] wrapper that injects deterministic faults per its
/// [`FaultSchedule`], delegating to the inner step otherwise.
///
/// Attempt numbers are inferred by counting executions per wave, so the
/// wrapper needs no cooperation from the retry machinery.
#[derive(Debug)]
pub struct FaultyStep<S> {
    inner: S,
    schedule: FaultSchedule,
    state: Mutex<FaultState>,
}

impl<S: Step> FaultyStep<S> {
    /// Wraps `inner` with the given fault schedule.
    #[must_use]
    pub fn new(inner: S, schedule: FaultSchedule) -> Self {
        Self {
            inner,
            schedule,
            state: Mutex::new(FaultState::default()),
        }
    }

    /// Wraps `inner` in an [`Arc`], for workflows that share steps.
    #[must_use]
    pub fn shared(inner: S, schedule: FaultSchedule) -> Arc<Self> {
        Arc::new(Self::new(inner, schedule))
    }

    /// The schedule driving the injected faults.
    #[must_use]
    pub fn schedule(&self) -> FaultSchedule {
        self.schedule
    }

    /// Whether the schedule fails this execution on `wave`.
    fn fails(&self, wave: u64) -> bool {
        // The guard scope is confined to bookkeeping: it must be dropped
        // before the inner step's `execute` callback runs.
        let mut state = self.state.lock();
        if state.wave != wave {
            state.wave = wave;
            state.attempts_this_wave = 0;
        }
        state.attempts_this_wave += 1;
        let attempt = state.attempts_this_wave;

        let fails = match self.schedule {
            FaultSchedule::FailNThenSucceed { failures } => {
                state.total_failures < u64::from(failures)
            }
            FaultSchedule::EveryKthWave { .. } | FaultSchedule::Seeded { .. } => {
                attempt <= self.schedule.planned_failures(wave)
            }
        };
        if fails {
            state.total_failures += 1;
        }
        fails
    }
}

impl<S: Step> Step for FaultyStep<S> {
    fn execute(&self, ctx: &StepContext) -> Result<(), StepError> {
        if self.fails(ctx.wave()) {
            return Err(StepError::msg(format!(
                "injected fault: step `{}` wave {}",
                ctx.step_name(),
                ctx.wave()
            )));
        }
        self.inner.execute(ctx)
    }
}

/// splitmix64: a tiny, high-quality 64-bit mixer; deterministic per
/// `(seed, wave)` pair.
fn mix(seed: u64, wave: u64) -> u64 {
    let mut z = seed
        .wrapping_add(wave.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::step::FnStep;
    use smartflux_datastore::DataStore;
    use std::sync::LazyLock;

    /// The store every test context borrows; the steps here never touch it.
    static STORE: LazyLock<DataStore> = LazyLock::new(DataStore::new);

    fn ctx(wave: u64) -> StepContext<'static> {
        let mut b = GraphBuilder::new("g");
        let id = b.add_step("s");
        StepContext::new(&STORE, wave, id, "s")
    }

    fn ok_step() -> impl Step {
        FnStep::new(|_: &StepContext| Ok(()))
    }

    #[test]
    fn fail_n_then_succeed() {
        let s = FaultyStep::new(ok_step(), FaultSchedule::FailNThenSucceed { failures: 2 });
        assert!(s.execute(&ctx(1)).is_err());
        assert!(s.execute(&ctx(1)).is_err());
        assert!(s.execute(&ctx(1)).is_ok());
        assert!(s.execute(&ctx(2)).is_ok());
    }

    #[test]
    fn every_kth_wave_fails_leading_attempts() {
        let s = FaultyStep::new(
            ok_step(),
            FaultSchedule::EveryKthWave {
                every: 3,
                failures: 1,
            },
        );
        assert!(s.execute(&ctx(1)).is_ok());
        assert!(s.execute(&ctx(2)).is_ok());
        assert!(s.execute(&ctx(3)).is_err()); // wave 3, attempt 1
        assert!(s.execute(&ctx(3)).is_ok()); // wave 3, attempt 2
        assert!(s.execute(&ctx(4)).is_ok());
        assert!(s.execute(&ctx(6)).is_err());
    }

    #[test]
    fn seeded_schedule_is_deterministic_and_bounded() {
        let schedule = FaultSchedule::Seeded {
            seed: 42,
            fail_percent: 30,
            max_consecutive: 2,
        };
        let mut faulty_waves = 0u32;
        for wave in 1..=500 {
            let a = schedule.planned_failures(wave);
            let b = schedule.planned_failures(wave);
            assert_eq!(a, b, "same (seed, wave) must draw the same plan");
            assert!(a <= 2, "never more than max_consecutive failures");
            if a > 0 {
                faulty_waves += 1;
            }
        }
        // ~30% of 500 waves; generous tolerance keeps the test stable.
        assert!((75..=225).contains(&faulty_waves), "got {faulty_waves}");

        // A different seed draws a different plan somewhere.
        let other = FaultSchedule::Seeded {
            seed: 43,
            fail_percent: 30,
            max_consecutive: 2,
        };
        assert!((1..=500).any(|w| schedule.planned_failures(w) != other.planned_failures(w)));
    }

    #[test]
    fn seeded_execution_matches_plan() {
        let schedule = FaultSchedule::Seeded {
            seed: 7,
            fail_percent: 50,
            max_consecutive: 2,
        };
        let s = FaultyStep::new(ok_step(), schedule);
        for wave in 1..=50 {
            let planned = schedule.planned_failures(wave);
            for attempt in 1..=(planned + 1) {
                let result = s.execute(&ctx(wave));
                if attempt <= planned {
                    assert!(result.is_err(), "wave {wave} attempt {attempt}");
                } else {
                    assert!(result.is_ok(), "wave {wave} attempt {attempt}");
                }
            }
        }
    }
}
