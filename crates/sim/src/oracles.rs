//! The whole-stack oracles: what "correct" means for a simulated run.
//!
//! Each oracle is a pure function over [`RunArtifacts`] (no re-execution,
//! no I/O) returning the list of [`Violation`]s it found — empty means the
//! property held. [`run_all`] is the composition the sweep driver uses: it
//! executes every run mode the scenario calls for and applies every
//! applicable oracle.
//!
//! | Oracle | Property |
//! |---|---|
//! | `determinism` | same scenario twice → bit-identical artifacts |
//! | `crash-equivalence` | kill+recover replays match the uninterrupted run |
//! | `wire-equivalence` | the loopback net plane matches the in-process run |
//! | `invariants` | clock = writes; waves closed; traces connected; counters = events |
//! | `close-race` | a submit racing a close is answered, never stranded |

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;

use smartflux::WaveDiagnostics;
use smartflux_net::DecisionRow;
use smartflux_telemetry::{names, SpanEvent};
use smartflux_wms::SchedulerEvent;

use crate::error::SimError;
use crate::harness::{self, RunArtifacts, WireArtifacts, DETERMINISTIC_COUNTERS};
use crate::scenario::Scenario;

/// One oracle finding: a property the run violated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which oracle tripped (`"determinism"`, `"crash-equivalence"`,
    /// `"wire-equivalence"`, `"invariants"`, `"close-race"`).
    pub oracle: &'static str,
    /// Human-readable description, naming the offending wave/step/fault
    /// where one exists.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

fn violation(oracle: &'static str, detail: impl Into<String>) -> Violation {
    Violation {
        oracle,
        detail: detail.into(),
    }
}

/// Structural shape of a span, stripped of per-process identities and
/// timings: `(name, tag, parent position in the span list)`.
type SpanShape = Vec<(&'static str, u64, Option<usize>)>;

fn span_shape(spans: &[SpanEvent]) -> SpanShape {
    let by_id: BTreeMap<u64, usize> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.span_id != 0)
        .map(|(i, s)| (s.span_id, i))
        .collect();
    spans
        .iter()
        .map(|s| {
            let parent = if s.parent_id == 0 {
                None
            } else {
                by_id.get(&s.parent_id).copied()
            };
            (s.name, s.tag, parent)
        })
        .collect()
}

/// Same scenario, same mode, twice: every decision-relevant artifact must
/// be bit-identical.
#[must_use]
pub fn check_determinism(a: &RunArtifacts, b: &RunArtifacts) -> Vec<Violation> {
    const ORACLE: &str = "determinism";
    let mut found = Vec::new();
    if a.clock != b.clock {
        found.push(violation(
            ORACLE,
            format!("logical clocks diverged: {} vs {}", a.clock, b.clock),
        ));
    }
    if a.store != b.store {
        found.push(violation(ORACLE, "store exports diverged"));
    }
    if a.aborted_waves != b.aborted_waves {
        found.push(violation(
            ORACLE,
            format!(
                "aborted waves diverged: {:?} vs {:?}",
                a.aborted_waves, b.aborted_waves
            ),
        ));
    }
    if a.counters != b.counters {
        found.push(violation(
            ORACLE,
            format!("counters diverged: {:?} vs {:?}", a.counters, b.counters),
        ));
    }
    if a.decisions != b.decisions {
        let wave = a
            .decisions
            .iter()
            .zip(&b.decisions)
            .find(|(x, y)| x != y)
            .map_or_else(
                || a.decisions.len().min(b.decisions.len()) as u64,
                |(x, _)| x.wave,
            );
        found.push(violation(
            ORACLE,
            format!("decisions diverged (first at wave {wave})"),
        ));
    }
    if a.events != b.events {
        found.push(violation(ORACLE, "scheduler event streams diverged"));
    }
    if a.journal != b.journal {
        found.push(violation(ORACLE, "wave-decision journals diverged"));
    }
    if span_shape(&a.spans) != span_shape(&b.spans) {
        found.push(violation(ORACLE, "trace span structure diverged"));
    }
    found
}

/// Last observation per wave (in crash runs a wave may be observed by
/// several segments; the latest is the surviving execution).
fn final_by_wave(decisions: &[WaveDiagnostics]) -> BTreeMap<u64, &WaveDiagnostics> {
    decisions.iter().map(|d| (d.wave, d)).collect()
}

/// A killed-and-recovered run must match the uninterrupted run
/// decision-for-decision — including the doomed executions of waves that
/// were later replayed.
#[must_use]
pub fn check_crash_equivalence(crash: &RunArtifacts, reference: &RunArtifacts) -> Vec<Violation> {
    const ORACLE: &str = "crash-equivalence";
    let mut found = Vec::new();
    let expected = final_by_wave(&reference.decisions);
    for observed in &crash.decisions {
        match expected.get(&observed.wave) {
            None => found.push(violation(
                ORACLE,
                format!(
                    "crash run executed wave {} the reference never ran",
                    observed.wave
                ),
            )),
            Some(reference) if *reference != observed => found.push(violation(
                ORACLE,
                format!("wave {} diverged from the uninterrupted run", observed.wave),
            )),
            Some(_) => {}
        }
    }
    let covered: BTreeSet<u64> = crash.decisions.iter().map(|d| d.wave).collect();
    for &wave in expected.keys() {
        if !covered.contains(&wave) {
            found.push(violation(
                ORACLE,
                format!("crash run never executed wave {wave}"),
            ));
        }
    }
    if crash.clock != reference.clock {
        found.push(violation(
            ORACLE,
            format!(
                "recovered clock {} != uninterrupted clock {}",
                crash.clock, reference.clock
            ),
        ));
    }
    if crash.store != reference.store {
        found.push(violation(
            ORACLE,
            "recovered store diverged from the uninterrupted run",
        ));
    }
    found
}

/// The loopback wire run must match the in-process run: the same
/// decision rows (each what [`DecisionRow::from`] makes of the in-process
/// row), same store, same clock, same aborted waves — and every damaged
/// frame rejected.
#[must_use]
pub fn check_wire_equivalence(wire: &WireArtifacts, local: &RunArtifacts) -> Vec<Violation> {
    const ORACLE: &str = "wire-equivalence";
    let mut found = Vec::new();
    let expected = final_by_wave(&local.decisions);
    if wire.decisions.len() != expected.len() {
        found.push(violation(
            ORACLE,
            format!(
                "wire run reported {} waves, in-process ran {}",
                wire.decisions.len(),
                expected.len()
            ),
        ));
    }
    for row in &wire.decisions {
        let Some(local_row) = expected.get(&row.wave) else {
            found.push(violation(
                ORACLE,
                format!("wire wave {} has no in-process counterpart", row.wave),
            ));
            continue;
        };
        if *row != DecisionRow::from(*local_row) {
            found.push(violation(
                ORACLE,
                format!("wave {} diverged between wire and in-process", row.wave),
            ));
        }
    }
    if wire.clock != local.clock {
        found.push(violation(
            ORACLE,
            format!(
                "wire clock {} != in-process clock {}",
                wire.clock, local.clock
            ),
        ));
    }
    if wire.store != local.store {
        found.push(violation(
            ORACLE,
            "wire store diverged from in-process store",
        ));
    }
    if wire.aborted_waves != local.aborted_waves {
        found.push(violation(
            ORACLE,
            format!(
                "aborted waves diverged: wire {:?} vs in-process {:?}",
                wire.aborted_waves, local.aborted_waves
            ),
        ));
    }
    if wire.damage_rejections != wire.damage_injected {
        found.push(violation(
            ORACLE,
            format!(
                "only {}/{} damaged frames were rejected",
                wire.damage_rejections, wire.damage_injected
            ),
        ));
    }
    found
}

fn count_events(events: &[SchedulerEvent], pred: impl Fn(&SchedulerEvent) -> bool) -> u64 {
    events.iter().filter(|e| pred(e)).count() as u64
}

/// Single-run invariants: clock accounting, wave lifecycle, counter/event
/// consistency, journal = diagnostics, trace-tree connectivity.
#[must_use]
pub fn check_invariants(scenario: &Scenario, run: &RunArtifacts) -> Vec<Violation> {
    const ORACLE: &str = "invariants";
    let mut found = Vec::new();
    let killed = scenario
        .durability
        .as_ref()
        .is_some_and(|d| !d.kills.is_empty());

    // 1. Logical clock == `store.writes`: the session's accounting (the
    // clock's growth since it was built) holds across aborts, retries and
    // runaway attempts that write after their wave. That the store ticks
    // once per applied write is pinned by the datastore's `prop.rs`.
    // After a crash the recovered clock restarts at the checkpoint while
    // the segments' counters add up doomed writes, so the identity only
    // holds for single-segment runs.
    if !killed {
        let writes = run.counters.get(names::STORE_WRITES).copied().unwrap_or(0);
        if run.clock != writes {
            found.push(violation(
                ORACLE,
                format!("logical clock {} != applied writes {}", run.clock, writes),
            ));
        }
    }

    // 2. Wave lifecycle: every WaveStarted closed by exactly one matching
    // terminal before the next wave starts, numbering contiguous within a
    // segment (a restart to an earlier wave is legal only after a kill),
    // and every scheduled wave observed.
    let mut open: Option<u64> = None;
    let mut prev: Option<u64> = None;
    let mut started = BTreeSet::new();
    for event in &run.events {
        match event {
            SchedulerEvent::WaveStarted { wave } => {
                if let Some(open_wave) = open {
                    found.push(violation(
                        ORACLE,
                        format!("wave {open_wave} never closed before wave {wave} started"),
                    ));
                }
                open = Some(*wave);
                if let Some(prev) = prev {
                    if *wave != prev + 1 && (!killed || *wave > prev + 1) {
                        found.push(violation(
                            ORACLE,
                            format!("wave numbering jumped from {prev} to {wave}"),
                        ));
                    }
                }
                prev = Some(*wave);
                started.insert(*wave);
            }
            SchedulerEvent::WaveCompleted { wave, .. }
            | SchedulerEvent::WaveAborted { wave, .. } => {
                if open != Some(*wave) {
                    found.push(violation(
                        ORACLE,
                        format!("wave {wave} closed while {open:?} was open"),
                    ));
                }
                open = None;
            }
            _ => {}
        }
    }
    if let Some(open_wave) = open {
        found.push(violation(ORACLE, format!("wave {open_wave} never closed")));
    }
    for wave in 1..=scenario.waves {
        if !started.contains(&wave) {
            found.push(violation(ORACLE, format!("wave {wave} never started")));
        }
    }

    // 3. Telemetry counters must agree with the event stream.
    let pairs: [(&str, u64); 6] = [
        (
            names::STEPS_EXECUTED,
            count_events(&run.events, |e| {
                matches!(e, SchedulerEvent::StepCompleted { .. })
            }),
        ),
        (
            names::STEPS_SKIPPED,
            count_events(&run.events, |e| {
                matches!(e, SchedulerEvent::StepSkipped { .. })
            }),
        ),
        (
            names::STEPS_DEFERRED,
            count_events(&run.events, |e| {
                matches!(e, SchedulerEvent::StepDeferred { .. })
            }),
        ),
        (
            names::STEP_RETRIES,
            count_events(&run.events, |e| {
                matches!(e, SchedulerEvent::StepRetried { .. })
            }),
        ),
        (
            names::STEPS_FAILED,
            count_events(&run.events, |e| {
                matches!(e, SchedulerEvent::StepFailed { .. })
            }),
        ),
        (
            names::WAVES_ABORTED,
            count_events(&run.events, |e| {
                matches!(e, SchedulerEvent::WaveAborted { .. })
            }),
        ),
    ];
    for (name, from_events) in pairs {
        let from_counter = run.counters.get(name).copied().unwrap_or(0);
        if from_counter != from_events {
            found.push(violation(
                ORACLE,
                format!("counter {name} = {from_counter} but events say {from_events}"),
            ));
        }
    }

    // 4. The aborted waves the harness saw must be exactly the aborted
    // waves the scheduler announced.
    let aborted_events: Vec<u64> = run
        .events
        .iter()
        .filter_map(|e| match e {
            SchedulerEvent::WaveAborted { wave, .. } => Some(*wave),
            _ => None,
        })
        .collect();
    if aborted_events != run.aborted_waves {
        found.push(violation(
            ORACLE,
            format!(
                "aborted waves {:?} disagree with WaveAborted events {:?}",
                run.aborted_waves, aborted_events
            ),
        ));
    }

    // 5. The journal sinks saw exactly the diagnostics rows, in order.
    if run.journal != run.decisions {
        found.push(violation(
            ORACLE,
            "the journal saw rows other than diagnostics()",
        ));
    }

    // 6. Trace trees must be connected: every traced span's parent exists
    // within its trace.
    let ids: BTreeSet<(u64, u64)> = run
        .spans
        .iter()
        .filter(|s| s.span_id != 0)
        .map(|s| (s.trace_id, s.span_id))
        .collect();
    for span in &run.spans {
        if span.trace_id != 0
            && span.parent_id != 0
            && !ids.contains(&(span.trace_id, span.parent_id))
        {
            found.push(violation(
                ORACLE,
                format!(
                    "span `{}` (tag {}) has a dangling parent",
                    span.name, span.tag
                ),
            ));
        }
    }
    if !run.counters.contains_key(DETERMINISTIC_COUNTERS[0]) {
        found.push(violation(ORACLE, "telemetry counters were never captured"));
    }
    found
}

/// Race rounds per close-race exercise in [`run_all`].
pub const RACE_ROUNDS: u32 = 8;

/// Runs every mode the scenario calls for and applies every applicable
/// oracle. Returns all violations found (empty = the case passed).
///
/// # Errors
///
/// Propagates harness infrastructure failures; oracle findings are the
/// `Ok` payload, never an `Err`.
pub fn run_all(scenario: &Scenario, workdir: &Path) -> Result<Vec<Violation>, SimError> {
    let mut found = Vec::new();

    let a = harness::run_scenario(scenario, workdir, "a")?;
    let b = harness::run_scenario(scenario, workdir, "b")?;
    found.extend(check_determinism(&a, &b));
    found.extend(check_invariants(scenario, &a));

    let killed = scenario
        .durability
        .as_ref()
        .is_some_and(|d| !d.kills.is_empty());
    let reference = if killed {
        let reference = harness::run_uninterrupted(scenario, workdir, "ref")?;
        found.extend(check_crash_equivalence(&a, &reference));
        found.extend(check_invariants(scenario, &reference));
        Some(reference)
    } else {
        None
    };

    if let Some(net) = &scenario.net {
        let wire = harness::run_over_wire(scenario)?;
        // The server session never crashes, so the wire run compares
        // against the uninterrupted local execution.
        let local = reference.as_ref().unwrap_or(&a);
        found.extend(check_wire_equivalence(&wire, local));
        if net.close_race {
            let race = harness::exercise_close_race(scenario, RACE_ROUNDS)?;
            found.extend(
                race.violations
                    .into_iter()
                    .map(|detail| violation("close-race", detail)),
            );
        }
    }
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_scenario;

    fn workdir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sfsim-oracles-{}-{tag}", std::process::id()))
    }

    #[test]
    fn a_healthy_scenario_passes_every_oracle() {
        // A scenario with faults AND a crash plan, so several oracles
        // have real work to do.
        let scenario = (0..500u64)
            .map(Scenario::generate)
            .find(|s| {
                !s.faults.is_empty() && s.durability.as_ref().is_some_and(|d| !d.kills.is_empty())
            })
            .expect("some small seed generates a faulted crash scenario");
        let dir = workdir("healthy");
        let violations = run_all(&scenario, &dir).unwrap();
        assert!(
            violations.is_empty(),
            "scenario `{scenario}` tripped oracles:\n{}",
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn determinism_oracle_detects_divergence() {
        let scenario = Scenario::generate(3);
        let dir = workdir("diverge");
        let a = run_scenario(&scenario, &dir, "a").unwrap();
        let mut b = a.clone();
        b.clock += 1;
        b.decisions[0].impacts.push(42.0);
        let found = check_determinism(&a, &b);
        assert!(found.iter().any(|v| v.detail.contains("clock")));
        assert!(found.iter().any(|v| v.detail.contains("decisions")));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn invariant_oracle_detects_unclosed_waves() {
        let scenario = Scenario::generate(3);
        let dir = workdir("unclosed");
        let mut run = run_scenario(&scenario, &dir, "a").unwrap();
        // Drop the final terminal event: its wave is now unclosed.
        let last_terminal = run
            .events
            .iter()
            .rposition(|e| {
                matches!(
                    e,
                    SchedulerEvent::WaveCompleted { .. } | SchedulerEvent::WaveAborted { .. }
                )
            })
            .unwrap();
        run.events.remove(last_terminal);
        let found = check_invariants(&scenario, &run);
        assert!(
            found.iter().any(|v| v.detail.contains("never closed")),
            "expected an unclosed-wave violation, got {found:?}"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}
