//! Shrinking: reducing a failing scenario to a minimal repro.
//!
//! When an oracle trips, the sweep does not hand you the 50-wave,
//! 7-step, triple-faulted monster that found the bug — it hands you the
//! smallest edit of it that still fails. Shrinking works on the
//! [`Scenario`] *fields* (fewer waves, fewer faults, smaller DAG,
//! simpler plans) while keeping the seed, so the workload content stays
//! pinned as the shape contracts; every candidate is re-validated and
//! re-executed through the full oracle set, and a candidate is adopted
//! only if the failure persists.
//!
//! The output is the one-line `sfsim1;…` repro string — paste it into
//! `SMARTFLUX_SIM_REPRO` and the sweep test replays exactly that case.

use std::fmt;
use std::path::Path;

use crate::oracles::{self, Violation};
use crate::scenario::Scenario;

/// A failing case: the scenario and what it violated.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The (possibly shrunk) failing scenario.
    pub scenario: Scenario,
    /// The oracle findings for that scenario.
    pub violations: Vec<Violation>,
    /// Oracle evaluations spent shrinking.
    pub shrink_evals: u32,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "repro: {}", self.scenario.repro())?;
        for violation in &self.violations {
            writeln!(f, "  {violation}")?;
        }
        Ok(())
    }
}

/// Candidate edits for one shrink round, most aggressive first.
fn candidates(s: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();

    // Fewer waves (the single biggest run-time lever).
    let halved = (s.waves / 2).max(s.training_waves as u64 + 1);
    if halved < s.waves {
        let mut c = s.clone();
        c.waves = halved;
        if let Some(plan) = &mut c.durability {
            plan.kills.retain(|&k| k < c.waves);
        }
        out.push(c);
    }

    // Fewer faults, one at a time.
    for i in 0..s.faults.len() {
        let mut c = s.clone();
        c.faults.remove(i);
        out.push(c);
    }

    // Simpler crash plan, then none.
    if let Some(plan) = &s.durability {
        if !plan.kills.is_empty() {
            let mut c = s.clone();
            if let Some(plan) = &mut c.durability {
                plan.kills.pop();
            }
            out.push(c);
        }
        let mut c = s.clone();
        c.durability = None;
        out.push(c);
    }

    // Simpler net plan, then none.
    if let Some(net) = &s.net {
        if net.damage_frames > 0 {
            let mut c = s.clone();
            if let Some(net) = &mut c.net {
                net.damage_frames = 0;
            }
            out.push(c);
        }
        if net.close_race {
            let mut c = s.clone();
            if let Some(net) = &mut c.net {
                net.close_race = false;
            }
            out.push(c);
        }
        let mut c = s.clone();
        c.net = None;
        out.push(c);
    }

    // Smaller DAG.
    if s.steps > 2 {
        let mut c = s.clone();
        c.steps -= 1;
        c.extra_edges = c.extra_edges.min(c.steps.saturating_sub(2));
        c.faults.retain(|f| f.step < c.steps);
        out.push(c);
    }
    if s.extra_edges > 0 {
        let mut c = s.clone();
        c.extra_edges = 0;
        out.push(c);
    }

    // Simpler stream and policies.
    if s.writes_per_wave > 1 {
        let mut c = s.clone();
        c.writes_per_wave = 1;
        out.push(c);
    }
    if s.spike_every > 0 {
        let mut c = s.clone();
        c.spike_every = 0;
        c.spike_magnitude = 0.0;
        out.push(c);
    }
    if s.retry_attempts > 1 {
        let mut c = s.clone();
        c.retry_attempts = 1;
        for fault in &mut c.faults {
            if let crate::scenario::FaultKind::EveryKth { failures, .. } = &mut fault.kind {
                *failures = (*failures).min(1);
            }
        }
        out.push(c);
    }

    out.retain(|c| c != s && c.validate().is_ok());
    out
}

/// Shrinks `scenario` while the failure persists, spending at most
/// `budget` oracle evaluations. Each evaluation re-runs the full oracle
/// set; a candidate whose evaluation errors (infrastructure) or passes
/// is discarded.
#[must_use]
pub fn shrink(
    scenario: &Scenario,
    violations: Vec<Violation>,
    workdir: &Path,
    budget: u32,
) -> Failure {
    let mut current = Failure {
        scenario: scenario.clone(),
        violations,
        shrink_evals: 0,
    };
    let mut spent = 0u32;
    'outer: while spent < budget {
        for candidate in candidates(&current.scenario) {
            if spent >= budget {
                break 'outer;
            }
            spent += 1;
            match oracles::run_all(&candidate, workdir) {
                Ok(found) if !found.is_empty() => {
                    current = Failure {
                        scenario: candidate,
                        violations: found,
                        shrink_evals: spent,
                    };
                    continue 'outer;
                }
                Ok(_) | Err(_) => {}
            }
        }
        break;
    }
    current.shrink_evals = spent;
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_are_valid_and_strictly_different() {
        for seed in 0..100u64 {
            let scenario = Scenario::generate(seed);
            for candidate in candidates(&scenario) {
                assert_ne!(candidate, scenario);
                candidate.validate().unwrap_or_else(|e| {
                    panic!("seed {seed}: invalid shrink candidate ({e}): {candidate}")
                });
            }
        }
    }

    #[test]
    fn candidates_reach_the_trivial_scenario() {
        // Repeatedly taking the first candidate must terminate: every
        // edit strictly simplifies the scenario.
        let mut scenario = Scenario::generate(11);
        let mut rounds = 0;
        while let Some(next) = candidates(&scenario).into_iter().next() {
            scenario = next;
            rounds += 1;
            assert!(rounds < 200, "shrink candidates do not terminate");
        }
        assert!(scenario.faults.is_empty());
        assert!(scenario.durability.is_none());
        assert!(scenario.net.is_none());
        assert_eq!(scenario.steps, 2);
    }
}
