//! Workload realisation: turning a [`Scenario`] into a bound [`Workflow`].
//!
//! Everything here is a pure function of the scenario — topology, write
//! values, QoD bounds, fault wiring all derive from `scenario.seed` with
//! domain-salted RNG streams, never from generation order. That is what
//! lets the harness rebuild the *same* workload on a fresh store for a
//! recovered session or on the far side of the wire, and lets shrinking
//! edit scenario fields without reshuffling unrelated content.
//!
//! The simulated workflow is a layered DAG: source steps write a drifting,
//! occasionally spiking numeric distribution into their own container
//! family; inner steps aggregate their predecessors' families into their
//! own. Inner steps carry QoD error bounds (so the engine has decisions to
//! make) and every step carries the scenario's retry budget, with scripted
//! [`FaultyStep`] wrappers bound per the fault plan.
//!
//! [`FaultyStep`]: smartflux_wms::FaultyStep

use std::collections::BTreeSet;
use std::sync::Arc;

use smartflux::EngineConfig;
use smartflux_datastore::{ContainerRef, DataStore, Value};
use smartflux_net::WorkflowRegistry;
use smartflux_wms::{
    FaultSchedule, FaultyStep, FnStep, GraphBuilder, RetryPolicy, Step, StepContext, StepError,
    Workflow,
};

use crate::clock::VirtualClock;
use crate::error::SimError;
use crate::rng::SimRng;
use crate::scenario::{FaultKind, Scenario};

/// Table all generated containers live in.
pub const TABLE: &str = "sim";

/// Salt for the topology RNG stream (independent of scenario generation).
const TOPOLOGY_SALT: u64 = 0x7019_AC3D_5B11_42E7;

/// Salt for per-value noise draws.
const NOISE_SALT: u64 = 0x9D2C_51F0_83A6_EE19;

/// Salt for per-step coefficients and error bounds.
const STEP_SALT: u64 = 0x40D3_77F8_12BC_90A5;

/// Container family owned (written) by step `step`.
#[must_use]
pub fn family(step: usize) -> String {
    format!("s{step}")
}

/// Name of step `step` in the generated graph.
#[must_use]
pub fn step_name(step: usize) -> String {
    format!("step{step}")
}

/// The generated DAG shape: predecessor lists per step, derived purely
/// from `(seed, steps, extra_edges)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// `preds[i]` = sorted predecessor indices of step `i`. Empty ⇒
    /// source step.
    pub preds: Vec<Vec<usize>>,
}

impl Topology {
    /// Derives the topology for `scenario`.
    ///
    /// Step 0 is always a source; interior steps occasionally become
    /// additional sources; the last step always has predecessors, so the
    /// workflow always contains at least one QoD (bounded) step.
    #[must_use]
    pub fn of(scenario: &Scenario) -> Self {
        let mut rng = SimRng::new(scenario.seed ^ TOPOLOGY_SALT);
        let n = scenario.steps;
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, slot) in preds.iter_mut().enumerate().skip(1) {
            let extra_source = i + 1 < n && rng.chance(20);
            if extra_source {
                continue;
            }
            let k = rng.range_usize(1, 2.min(i));
            let mut chosen = BTreeSet::new();
            while chosen.len() < k {
                chosen.insert(rng.range_usize(0, i - 1));
            }
            *slot = chosen.into_iter().collect();
        }
        for _ in 0..scenario.extra_edges {
            let to = rng.range_usize(1, n - 1);
            let from = rng.range_usize(0, to - 1);
            if !preds[to].contains(&from) {
                preds[to].push(from);
                preds[to].sort_unstable();
            }
        }
        Self { preds }
    }

    /// Indices of source steps (no predecessors).
    #[must_use]
    pub fn sources(&self) -> Vec<usize> {
        (0..self.preds.len())
            .filter(|&i| self.preds[i].is_empty())
            .collect()
    }
}

/// A deterministic draw in `[-1, 1)` for one written value.
fn noise(seed: u64, step: usize, wave: u64, write: u32) -> f64 {
    let mut rng = SimRng::new(
        seed ^ NOISE_SALT
            ^ (step as u64).wrapping_mul(0x517C_C1B7_2722_0A95)
            ^ wave.wrapping_mul(0x2545_F491_4F6C_DD1D)
            ^ u64::from(write).wrapping_mul(0x27BB_2EE6_87B0_B0FD),
    );
    rng.unit_f64() * 2.0 - 1.0
}

/// Per-step deterministic unit draw (for coefficients and error bounds).
fn step_unit(seed: u64, step: usize, tag: u64) -> f64 {
    let mut rng =
        SimRng::new(seed ^ STEP_SALT ^ (step as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ tag);
    rng.unit_f64()
}

/// QoD error bound of non-source step `step`.
#[must_use]
pub fn error_bound(seed: u64, step: usize) -> f64 {
    0.05 + step_unit(seed, step, 1) * 0.25
}

/// Aggregation coefficient of non-source step `step`.
fn coefficient(seed: u64, step: usize) -> f64 {
    0.5 + step_unit(seed, step, 2)
}

/// Object-safe step wrapper so fault layers can stack over any body.
struct DynStep(Arc<dyn Step>);

impl Step for DynStep {
    fn execute(&self, ctx: &StepContext) -> Result<(), StepError> {
        self.0.execute(ctx)
    }
}

/// Creates every generated container on `store` (idempotent).
///
/// # Errors
///
/// Propagates store failures (none are expected on a healthy store).
pub fn ensure_containers(scenario: &Scenario, store: &DataStore) -> Result<(), SimError> {
    for step in 0..scenario.steps {
        store.ensure_container(&ContainerRef::family(TABLE, family(step)))?;
    }
    Ok(())
}

fn source_body(scenario: &Scenario, step: usize) -> Arc<dyn Step> {
    let seed = scenario.seed;
    let writes = scenario.writes_per_wave;
    let rows = scenario.rows;
    let drift = scenario.drift;
    let spike_every = scenario.spike_every;
    let spike_magnitude = scenario.spike_magnitude;
    let clock = VirtualClock::default();
    let fam = family(step);
    let base = 10.0 * (step as f64 + 1.0);
    Arc::new(FnStep::new(move |ctx: &StepContext| {
        let wave = ctx.wave();
        let t = clock.wave_time_secs(wave);
        let spike = if spike_every > 0 && wave.is_multiple_of(spike_every) {
            spike_magnitude
        } else {
            0.0
        };
        for w in 0..writes {
            let row = format!(
                "r{}",
                (wave.wrapping_mul(u64::from(writes)) + u64::from(w)) % u64::from(rows)
            );
            let value = base + drift * t + spike + noise(seed, step, wave, w);
            ctx.put(TABLE, &fam, &row, "v", Value::from(value))?;
        }
        Ok(())
    }))
}

fn inner_body(scenario: &Scenario, step: usize, preds: Vec<usize>) -> Arc<dyn Step> {
    let seed = scenario.seed;
    let rows = scenario.rows;
    let fam = family(step);
    let pred_fams: Vec<String> = preds.iter().map(|&p| family(p)).collect();
    let coeff = coefficient(seed, step);
    Arc::new(FnStep::new(move |ctx: &StepContext| {
        let wave = ctx.wave();
        let mut sum = 0.0;
        for pred_fam in &pred_fams {
            for r in 0..rows {
                sum += ctx.get_f64(TABLE, pred_fam, &format!("r{r}"), "v", 0.0)?;
                sum += ctx.get_f64(TABLE, pred_fam, "agg", "v", 0.0)?;
            }
        }
        let value = sum * coeff + noise(seed, step, wave, u32::MAX) * 0.1;
        ctx.put(TABLE, &fam, "agg", "v", Value::from(value))?;
        Ok(())
    }))
}

/// Builds the fully bound workflow for `scenario`, creating its containers
/// on `store`.
///
/// # Errors
///
/// Fails only on an invalid scenario or a broken store; a scenario that
/// passes [`Scenario::validate`] always builds.
pub fn build_workflow(scenario: &Scenario, store: &DataStore) -> Result<Workflow, SimError> {
    scenario.validate()?;
    ensure_containers(scenario, store)?;
    let topology = Topology::of(scenario);

    let mut builder = GraphBuilder::new("sim-generated");
    let ids: Vec<_> = (0..scenario.steps)
        .map(|i| builder.add_step(step_name(i)))
        .collect();
    for (to, preds) in topology.preds.iter().enumerate() {
        for &from in preds {
            builder.add_edge(ids[from], ids[to])?;
        }
    }
    let graph = builder.build()?;
    let mut workflow = Workflow::new(graph);

    for (i, preds) in topology.preds.iter().enumerate() {
        let is_source = preds.is_empty();
        let mut body: Arc<dyn Step> = if is_source {
            source_body(scenario, i)
        } else {
            inner_body(scenario, i, preds.clone())
        };
        for fault in scenario.faults.iter().filter(|f| f.step == i) {
            let schedule = match fault.kind {
                FaultKind::EveryKth { every, failures } => {
                    FaultSchedule::EveryKthWave { every, failures }
                }
                FaultKind::Seeded {
                    fail_percent,
                    max_consecutive,
                } => FaultSchedule::Seeded {
                    seed: scenario.seed ^ (i as u64).wrapping_mul(0x10_00_00_01_B3),
                    fail_percent,
                    max_consecutive,
                },
            };
            body = Arc::new(FaultyStep::new(DynStep(body), schedule));
        }
        let mut binding = workflow.bind(ids[i], DynStep(body));
        binding.writes(ContainerRef::family(TABLE, family(i)));
        binding.retry(RetryPolicy::attempts(scenario.retry_attempts));
        if is_source {
            binding.source();
        } else {
            for &p in preds {
                binding.reads(ContainerRef::family(TABLE, family(p)));
            }
            binding.error_bound(error_bound(scenario.seed, i));
        }
    }
    Ok(workflow)
}

/// The engine configuration a scenario runs under (identical for every
/// run mode, which is what the equivalence oracles rely on).
#[must_use]
pub fn engine_config(scenario: &Scenario) -> EngineConfig {
    EngineConfig::new()
        .with_training_waves(scenario.training_waves)
        .with_seed(scenario.seed)
        // Gates at zero: training always converges on schedule, so phase
        // transitions are a pure function of the wave number.
        .with_quality_gates(0.0, 0.0)
        .with_telemetry(true)
}

/// Registers the scenario's workload on a net-plane registry under
/// `name`, so a loopback server can build the identical workflow.
///
/// # Errors
///
/// Fails if the scenario is invalid.
pub fn register_workload(
    registry: &mut WorkflowRegistry,
    name: &str,
    scenario: &Scenario,
) -> Result<(), SimError> {
    scenario.validate()?;
    let scenario = scenario.clone();
    let config = engine_config(&scenario);
    registry.register(name, config, move |store| {
        build_workflow(&scenario, store)
            // tidy:allow(panic): statically unreachable — the scenario was
            // validated at registration and rebuilding it on the host's
            // fresh store cannot fail.
            .expect("validated scenario must rebuild")
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_is_deterministic_and_well_formed() {
        for seed in 0..200u64 {
            let scenario = Scenario::generate(seed);
            let a = Topology::of(&scenario);
            let b = Topology::of(&scenario);
            assert_eq!(a, b);
            assert!(a.preds[0].is_empty(), "step 0 must be a source");
            let last = scenario.steps - 1;
            assert!(!a.preds[last].is_empty(), "last step must be bounded");
            for (i, preds) in a.preds.iter().enumerate() {
                for &p in preds {
                    assert!(p < i, "edges must point forward");
                }
            }
        }
    }

    #[test]
    fn workflow_builds_and_runs_a_wave() {
        let scenario = Scenario::generate(7);
        let store = DataStore::new();
        let workflow = build_workflow(&scenario, &store).unwrap();
        assert_eq!(workflow.graph().len(), scenario.steps);
        assert!(workflow.first_unbound().is_none(), "every step is bound");
        assert!(!workflow.qod_steps().is_empty(), "at least one QoD step");
    }

    #[test]
    fn noise_is_a_pure_function() {
        assert_eq!(noise(1, 2, 3, 4), noise(1, 2, 3, 4));
        assert!(noise(1, 2, 3, 4) != noise(1, 2, 3, 5));
        for w in 0..100 {
            let n = noise(9, 0, w, 0);
            assert!((-1.0..1.0).contains(&n));
        }
    }
}
