//! Scenario: the complete, serialisable description of one simulated run.
//!
//! A [`Scenario`] pins down everything random about a case — workflow
//! shape, wave count, write-distribution drift and spikes, retry
//! configuration, the scripted fault schedule, crash points and network
//! exercise — as plain data derived from a single `u64` seed. The harness
//! never consults the seed again after generation: replaying a scenario
//! replays the run, and shrinking edits the scenario fields directly while
//! keeping the seed (so the workload content stays fixed as the shape
//! shrinks).
//!
//! Every scenario prints as a one-line repro string (`sfsim1;…`) and
//! parses back bit-identically, which is what test output hands you when
//! an oracle trips.

use std::fmt;
use std::str::FromStr;

use crate::error::SimError;
use crate::rng::SimRng;

/// Hard ceiling on generated workflow size, so shrinking always has room
/// to move and a corrupt repro string cannot request a pathological run.
pub const MAX_STEPS: usize = 64;

/// Hard ceiling on generated run length, for the same reason.
pub const MAX_WAVES: u64 = 10_000;

/// One scripted fault bound to one generated step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepFault {
    /// Index of the faulted step in the generated workflow (0-based).
    pub step: usize,
    /// The fault shape.
    pub kind: FaultKind,
}

/// The shape of a scripted step fault.
///
/// Only *stateless* shapes are representable: each maps onto a
/// [`FaultSchedule`] that is a pure function of `(wave, attempt)`, which
/// keeps a crash-recovered replay of a wave identical to its first
/// execution. (`FailNThenSucceed` counts history in memory and is
/// deliberately absent.)
///
/// [`FaultSchedule`]: smartflux_wms::FaultSchedule
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Every `every`-th wave, the first `failures` attempts fail.
    EveryKth {
        /// Wave period of the fault.
        every: u64,
        /// Leading failing attempts on a faulty wave.
        failures: u32,
    },
    /// Seeded per-wave transient failures.
    Seeded {
        /// Probability of a faulty wave, percent.
        fail_percent: u8,
        /// Most consecutive failing attempts on one wave.
        max_consecutive: u32,
    },
    /// Every `every`-th wave, the first attempt hangs past the watchdog
    /// timeout. Requires a retry budget ≥ 2 and is incompatible with
    /// crash and network plans (the runaway join point is owned by the
    /// in-process harness loop).
    Hang {
        /// Wave period of the hang.
        every: u64,
    },
}

/// Crash plan: checkpointing cadence and the waves after which the
/// session is killed (dropped without shutdown) and recovered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityPlan {
    /// Checkpoint every this many waves.
    pub checkpoint_interval: u64,
    /// Waves after which the session is crash-killed, strictly
    /// increasing; each ≥ `checkpoint_interval` so recovery has a
    /// checkpoint to stand on.
    pub kills: Vec<u64>,
}

/// Network plan: run the same scenario through the loopback wire plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetPlan {
    /// Damaged frames to throw at the server after the run (each on a
    /// fresh connection; the session must be unaffected).
    pub damage_frames: u32,
    /// Exercise a racing close-vs-submit against the session after its
    /// final wave.
    pub close_race: bool,
}

/// Everything that defines one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The case seed: the only entropy source for workload content.
    pub seed: u64,
    /// Steps in the generated workflow (≥ 2: one source, one QoD step).
    pub steps: usize,
    /// Cross edges added beyond each step's generated predecessors.
    pub extra_edges: usize,
    /// Waves the run executes.
    pub waves: u64,
    /// Configured training waves (must be < `waves`).
    pub training_waves: usize,
    /// Writes per source step per wave.
    pub writes_per_wave: u32,
    /// Distinct rows the sources cycle through.
    pub rows: u32,
    /// Linear drift of the write distribution mean, per virtual second.
    pub drift: f64,
    /// Spike period in waves (0 = no spikes).
    pub spike_every: u64,
    /// Spike amplitude added on spike waves.
    pub spike_magnitude: f64,
    /// Per-step retry budget (attempts, ≥ 1).
    pub retry_attempts: u32,
    /// Scripted step faults.
    pub faults: Vec<StepFault>,
    /// Crash plan, if any.
    pub durability: Option<DurabilityPlan>,
    /// Network plan, if any.
    pub net: Option<NetPlan>,
}

impl Scenario {
    /// Generates the scenario for `seed`.
    ///
    /// Generation draws from forked sub-streams per decision domain, so
    /// correlated fields (e.g. fault placement) cannot perturb unrelated
    /// ones. The result always passes [`Scenario::validate`].
    #[must_use]
    pub fn generate(seed: u64) -> Self {
        let mut root = SimRng::new(seed);
        let mut shape = root.fork(1);
        let mut stream = root.fork(2);
        let mut policy = root.fork(3);
        let mut faults_rng = root.fork(4);
        let mut plans = root.fork(5);

        let steps = shape.range_usize(3, 7);
        let extra_edges = shape.range_usize(0, 3.min(steps - 2));
        let waves = shape.range_u64(28, 56);
        let training_waves = shape.range_usize(8, 14);

        let writes_per_wave = stream.range_u64(1, 5) as u32;
        let rows = stream.range_u64(2, 5) as u32;
        let drift = stream.unit_f64() * 0.05;
        let spike_every = if stream.chance(60) {
            stream.range_u64(6, 14)
        } else {
            0
        };
        let spike_magnitude = if spike_every == 0 {
            0.0
        } else {
            1.0 + stream.unit_f64() * 3.0
        };

        let retry_attempts = policy.range_u64(1, 3) as u32;

        let mut durability = None;
        let mut net = None;
        if plans.chance(45) {
            let checkpoint_interval = plans.range_u64(5, 12);
            let kill_count = plans.range_u64(0, 2);
            let mut kills = Vec::new();
            let mut lo = checkpoint_interval;
            for _ in 0..kill_count {
                if lo >= waves {
                    break;
                }
                let kill = plans.range_u64(lo, waves - 1);
                kills.push(kill);
                lo = kill + 1;
            }
            durability = Some(DurabilityPlan {
                checkpoint_interval,
                kills,
            });
        }
        if plans.chance(30) {
            net = Some(NetPlan {
                damage_frames: plans.range_u64(0, 4) as u32,
                close_race: plans.chance(40),
            });
        }

        let hang_allowed = retry_attempts >= 2
            && net.is_none()
            && durability.as_ref().is_none_or(|d| d.kills.is_empty());
        let fault_count = faults_rng.range_usize(0, 2);
        let mut faults = Vec::new();
        for _ in 0..fault_count {
            let step = faults_rng.range_usize(0, steps - 1);
            let kind = match faults_rng.range_u64(0, 9) {
                0..=3 => FaultKind::EveryKth {
                    every: faults_rng.range_u64(4, 11),
                    // Sometimes within the retry budget (the wave
                    // recovers), sometimes exhausting it (the wave
                    // aborts) — both paths must stay deterministic.
                    failures: faults_rng.range_u64(1, u64::from(retry_attempts)) as u32,
                },
                4..=7 => FaultKind::Seeded {
                    fail_percent: faults_rng.range_u64(10, 30) as u8,
                    max_consecutive: faults_rng.range_u64(1, 2) as u32,
                },
                _ if hang_allowed => FaultKind::Hang {
                    every: faults_rng.range_u64(9, 15),
                },
                _ => FaultKind::Seeded {
                    fail_percent: faults_rng.range_u64(10, 30) as u8,
                    max_consecutive: 1,
                },
            };
            faults.push(StepFault { step, kind });
        }

        let scenario = Self {
            seed,
            steps,
            extra_edges,
            waves,
            training_waves,
            writes_per_wave,
            rows,
            drift,
            spike_every,
            spike_magnitude,
            retry_attempts,
            faults,
            durability,
            net,
        };
        debug_assert!(scenario.validate().is_ok(), "generator broke its own rules");
        scenario
    }

    /// Checks the scenario's internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Invalid`] describing the first broken rule.
    pub fn validate(&self) -> Result<(), SimError> {
        let fail = |msg: String| Err(SimError::Invalid(msg));
        if self.steps < 2 || self.steps > MAX_STEPS {
            return fail(format!(
                "steps must be in 2..={MAX_STEPS}, got {}",
                self.steps
            ));
        }
        if self.waves == 0 || self.waves > MAX_WAVES {
            return fail(format!(
                "waves must be in 1..={MAX_WAVES}, got {}",
                self.waves
            ));
        }
        if self.training_waves as u64 >= self.waves {
            return fail(format!(
                "training_waves ({}) must be < waves ({})",
                self.training_waves, self.waves
            ));
        }
        if self.writes_per_wave == 0 || self.rows == 0 {
            return fail("writes_per_wave and rows must be >= 1".to_string());
        }
        if self.retry_attempts == 0 {
            return fail("retry_attempts must be >= 1".to_string());
        }
        if !self.drift.is_finite() || !self.spike_magnitude.is_finite() {
            return fail("drift and spike_magnitude must be finite".to_string());
        }
        for fault in &self.faults {
            if fault.step >= self.steps {
                return fail(format!(
                    "fault step {} out of range (steps = {})",
                    fault.step, self.steps
                ));
            }
            match fault.kind {
                FaultKind::EveryKth { every, failures } => {
                    if every < 2 || failures == 0 {
                        return fail("ekw fault needs every >= 2, failures >= 1".to_string());
                    }
                }
                FaultKind::Seeded {
                    fail_percent,
                    max_consecutive,
                } => {
                    if fail_percent == 0 || fail_percent > 95 || max_consecutive == 0 {
                        return fail(
                            "seeded fault needs 1..=95 percent, max_consecutive >= 1".to_string(),
                        );
                    }
                }
                FaultKind::Hang { every } => {
                    if every < 2 {
                        return fail("hang fault needs every >= 2".to_string());
                    }
                    if self.retry_attempts < 2 {
                        return fail("hang fault needs a retry budget >= 2".to_string());
                    }
                    if self.net.is_some() {
                        return fail("hang faults are incompatible with net plans".to_string());
                    }
                    if self
                        .durability
                        .as_ref()
                        .is_some_and(|d| !d.kills.is_empty())
                    {
                        return fail("hang faults are incompatible with crash kills".to_string());
                    }
                }
            }
        }
        if let Some(plan) = &self.durability {
            if plan.checkpoint_interval == 0 {
                return fail("checkpoint_interval must be >= 1".to_string());
            }
            let mut prev = 0u64;
            for &kill in &plan.kills {
                if kill < plan.checkpoint_interval {
                    return fail(format!(
                        "kill wave {kill} precedes the first checkpoint ({})",
                        plan.checkpoint_interval
                    ));
                }
                if kill >= self.waves {
                    return fail(format!(
                        "kill wave {kill} is not before the run end ({})",
                        self.waves
                    ));
                }
                if kill <= prev && prev != 0 {
                    return fail("kill waves must be strictly increasing".to_string());
                }
                prev = kill;
            }
        } else if self.faults.is_empty() && self.net.is_none() {
            // Fine: a pure determinism case.
        }
        if let Some(net) = &self.net {
            if net.damage_frames > 32 {
                return fail(format!(
                    "damage_frames capped at 32, got {}",
                    net.damage_frames
                ));
            }
        }
        Ok(())
    }

    /// `true` when the scenario includes any hang fault (the harness must
    /// own the runaway join points).
    #[must_use]
    pub fn has_hangs(&self) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f.kind, FaultKind::Hang { .. }))
    }

    /// The one-line repro string (same as [`fmt::Display`]).
    #[must_use]
    pub fn repro(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sfsim1;seed=0x{:x};steps={};edges={};waves={};train={};wpw={};rows={};drift={:?};spike={}@{:?};retry={}",
            self.seed,
            self.steps,
            self.extra_edges,
            self.waves,
            self.training_waves,
            self.writes_per_wave,
            self.rows,
            self.drift,
            self.spike_every,
            self.spike_magnitude,
            self.retry_attempts,
        )?;
        write!(f, ";faults=")?;
        if self.faults.is_empty() {
            write!(f, "none")?;
        } else {
            for (i, fault) in self.faults.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                match fault.kind {
                    FaultKind::EveryKth { every, failures } => {
                        write!(f, "ekw@{}:{}x{}", fault.step, every, failures)?;
                    }
                    FaultKind::Seeded {
                        fail_percent,
                        max_consecutive,
                    } => {
                        write!(
                            f,
                            "seeded@{}:{}p{}",
                            fault.step, fail_percent, max_consecutive
                        )?;
                    }
                    FaultKind::Hang { every } => {
                        write!(f, "hang@{}:{}", fault.step, every)?;
                    }
                }
            }
        }
        write!(f, ";dur=")?;
        match &self.durability {
            None => write!(f, "none")?,
            Some(plan) => {
                write!(f, "{}", plan.checkpoint_interval)?;
                for kill in &plan.kills {
                    write!(f, "+{kill}")?;
                }
            }
        }
        write!(f, ";net=")?;
        match &self.net {
            None => write!(f, "none")?,
            Some(plan) => {
                write!(f, "{}", plan.damage_frames)?;
                if plan.close_race {
                    write!(f, "+race")?;
                }
            }
        }
        Ok(())
    }
}

fn bad(msg: impl Into<String>) -> SimError {
    SimError::Repro(msg.into())
}

fn parse_u64(key: &str, value: &str) -> Result<u64, SimError> {
    if let Some(hex) = value.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).map_err(|e| bad(format!("{key}: {e}")))
    } else {
        value.parse().map_err(|e| bad(format!("{key}: {e}")))
    }
}

fn parse_f64(key: &str, value: &str) -> Result<f64, SimError> {
    value.parse().map_err(|e| bad(format!("{key}: {e}")))
}

fn parse_fault(spec: &str) -> Result<StepFault, SimError> {
    let (kind, rest) = spec
        .split_once('@')
        .ok_or_else(|| bad(format!("fault `{spec}` missing `@`")))?;
    let (step, body) = rest
        .split_once(':')
        .ok_or_else(|| bad(format!("fault `{spec}` missing `:`")))?;
    let step = step
        .parse()
        .map_err(|e| bad(format!("fault step in `{spec}`: {e}")))?;
    let kind = match kind {
        "ekw" => {
            let (every, failures) = body
                .split_once('x')
                .ok_or_else(|| bad(format!("ekw fault `{spec}` missing `x`")))?;
            FaultKind::EveryKth {
                every: parse_u64("ekw every", every)?,
                failures: parse_u64("ekw failures", failures)? as u32,
            }
        }
        "seeded" => {
            let (percent, max_consecutive) = body
                .split_once('p')
                .ok_or_else(|| bad(format!("seeded fault `{spec}` missing `p`")))?;
            FaultKind::Seeded {
                fail_percent: parse_u64("seeded percent", percent)? as u8,
                max_consecutive: parse_u64("seeded max_consecutive", max_consecutive)? as u32,
            }
        }
        "hang" => FaultKind::Hang {
            every: parse_u64("hang every", body)?,
        },
        other => return Err(bad(format!("unknown fault kind `{other}`"))),
    };
    Ok(StepFault { step, kind })
}

impl FromStr for Scenario {
    type Err = SimError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.trim().split(';');
        if parts.next() != Some("sfsim1") {
            return Err(bad("repro must start with `sfsim1;`"));
        }
        let mut seed = None;
        let mut steps = None;
        let mut edges = None;
        let mut waves = None;
        let mut train = None;
        let mut wpw = None;
        let mut rows = None;
        let mut drift = None;
        let mut spike = None;
        let mut retry = None;
        let mut faults = None;
        let mut dur = None;
        let mut net = None;
        for part in parts {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| bad(format!("field `{part}` missing `=`")))?;
            match key {
                "seed" => seed = Some(parse_u64(key, value)?),
                "steps" => steps = Some(parse_u64(key, value)? as usize),
                "edges" => edges = Some(parse_u64(key, value)? as usize),
                "waves" => waves = Some(parse_u64(key, value)?),
                "train" => train = Some(parse_u64(key, value)? as usize),
                "wpw" => wpw = Some(parse_u64(key, value)? as u32),
                "rows" => rows = Some(parse_u64(key, value)? as u32),
                "drift" => drift = Some(parse_f64(key, value)?),
                "spike" => {
                    let (every, magnitude) = value
                        .split_once('@')
                        .ok_or_else(|| bad("spike missing `@`"))?;
                    spike = Some((
                        parse_u64("spike every", every)?,
                        parse_f64("spike magnitude", magnitude)?,
                    ));
                }
                "retry" => retry = Some(parse_u64(key, value)? as u32),
                "faults" => {
                    faults = Some(if value == "none" {
                        Vec::new()
                    } else {
                        value
                            .split(',')
                            .map(parse_fault)
                            .collect::<Result<Vec<_>, _>>()?
                    });
                }
                "dur" => {
                    dur = Some(if value == "none" {
                        None
                    } else {
                        let mut fields = value.split('+');
                        let interval = fields
                            .next()
                            .ok_or_else(|| bad("empty dur field"))
                            .and_then(|v| parse_u64("dur interval", v))?;
                        let kills = fields
                            .map(|v| parse_u64("kill wave", v))
                            .collect::<Result<Vec<_>, _>>()?;
                        Some(DurabilityPlan {
                            checkpoint_interval: interval,
                            kills,
                        })
                    });
                }
                "net" => {
                    net = Some(if value == "none" {
                        None
                    } else {
                        let (frames, race) = match value.split_once('+') {
                            Some((frames, "race")) => (frames, true),
                            Some((_, other)) => {
                                return Err(bad(format!("unknown net suffix `{other}`")));
                            }
                            None => (value, false),
                        };
                        Some(NetPlan {
                            damage_frames: parse_u64("net damage", frames)? as u32,
                            close_race: race,
                        })
                    });
                }
                other => return Err(bad(format!("unknown field `{other}`"))),
            }
        }
        let (spike_every, spike_magnitude) = spike.ok_or_else(|| bad("missing `spike`"))?;
        let scenario = Scenario {
            seed: seed.ok_or_else(|| bad("missing `seed`"))?,
            steps: steps.ok_or_else(|| bad("missing `steps`"))?,
            extra_edges: edges.ok_or_else(|| bad("missing `edges`"))?,
            waves: waves.ok_or_else(|| bad("missing `waves`"))?,
            training_waves: train.ok_or_else(|| bad("missing `train`"))?,
            writes_per_wave: wpw.ok_or_else(|| bad("missing `wpw`"))?,
            rows: rows.ok_or_else(|| bad("missing `rows`"))?,
            drift: drift.ok_or_else(|| bad("missing `drift`"))?,
            spike_every,
            spike_magnitude,
            retry_attempts: retry.ok_or_else(|| bad("missing `retry`"))?,
            faults: faults.ok_or_else(|| bad("missing `faults`"))?,
            durability: dur.ok_or_else(|| bad("missing `dur`"))?,
            net: net.ok_or_else(|| bad("missing `net`"))?,
        };
        scenario.validate()?;
        Ok(scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
            assert_eq!(Scenario::generate(seed), Scenario::generate(seed));
        }
    }

    #[test]
    fn generated_scenarios_validate() {
        for seed in 0..500u64 {
            let scenario = Scenario::generate(seed);
            scenario.validate().unwrap_or_else(|e| {
                panic!("seed {seed} generated an invalid scenario: {e}\n{scenario}")
            });
        }
    }

    #[test]
    fn repro_round_trips() {
        for seed in 0..500u64 {
            let scenario = Scenario::generate(seed);
            let line = scenario.repro();
            let parsed: Scenario = line
                .parse()
                .unwrap_or_else(|e| panic!("seed {seed}: repro `{line}` failed to parse: {e}"));
            assert_eq!(parsed, scenario, "seed {seed}: `{line}`");
            assert_eq!(parsed.repro(), line);
        }
    }

    #[test]
    fn generation_covers_the_plan_space() {
        let scenarios: Vec<Scenario> = (0..500).map(Scenario::generate).collect();
        assert!(scenarios.iter().any(|s| s.durability.is_some()));
        assert!(scenarios
            .iter()
            .any(|s| s.durability.as_ref().is_some_and(|d| !d.kills.is_empty())));
        assert!(scenarios.iter().any(|s| s.net.is_some()));
        assert!(scenarios
            .iter()
            .any(|s| s.net.is_some_and(|n| n.close_race)));
        assert!(scenarios.iter().any(|s| !s.faults.is_empty()));
        assert!(scenarios.iter().any(Scenario::has_hangs));
    }

    #[test]
    fn bad_repro_strings_are_rejected() {
        for bad in [
            "",
            "sfsim2;seed=0x1",
            "sfsim1;seed=",
            "sfsim1;seed=0x1;steps=1", // missing fields and steps < 2
            "sfsim1;seed=0x1;steps=3;edges=0;waves=10;train=20;wpw=1;rows=2;drift=0.0;spike=0@0.0;retry=1;faults=none;dur=none;net=none", // train >= waves
            "sfsim1;seed=0x1;steps=3;edges=0;waves=30;train=2;wpw=1;rows=2;drift=0.0;spike=0@0.0;retry=1;faults=zzz@0:1;dur=none;net=none",
            // The store has no shard layout; a repro naming one is stale.
            "sfsim1;seed=0x1;steps=3;edges=0;waves=30;train=2;wpw=1;rows=2;drift=0.0;spike=0@0.0;shards=auto;retry=1;faults=none;dur=none;net=none",
        ] {
            assert!(bad.parse::<Scenario>().is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn validate_rejects_hang_with_kills() {
        let mut scenario = Scenario::generate(0);
        scenario.retry_attempts = 2;
        scenario.net = None;
        scenario.faults = vec![StepFault {
            step: 0,
            kind: FaultKind::Hang { every: 5 },
        }];
        scenario.durability = Some(DurabilityPlan {
            checkpoint_interval: 5,
            kills: vec![10],
        });
        assert!(scenario.validate().is_err());
    }
}
