//! Same-process speedup over synchronous execution (`speedup_vs_sdf`): the
//! application phase's wall time under the plain synchronous policy over
//! its wall time under the engine, on the same waves.
//!
//! Each flow trains once at wavebench's engine settings. Its store and
//! engine state at the end of training are the start of every block: a
//! block restores both, runs the same application waves under one policy,
//! and is timed alone. The two policies' blocks alternate, the first of a
//! pair swapping each repeat, and each policy keeps its best of
//! [`REPEATS`]. A ratio above 1 means the engine's skipped steps paid for
//! its monitoring. Nothing is written to `results/`: the figure is a
//! timing of this host.

use std::time::{Duration, Instant};

use smartflux::{CoreError, QodEngine, SmartFluxSession};
use smartflux_datastore::DataStore;
use smartflux_wms::{Scheduler, SynchronousPolicy, TriggerPolicy};

use super::oob_agreement::Flow;
use crate::heading;

/// The flows measured: the in-process wavebench workloads.
pub const FLOWS: [Flow; 3] = [Flow::Lrb, Flow::Aqhi, Flow::Pagerank];

/// Blocks per policy; each keeps its fastest.
pub const REPEATS: usize = 5;

/// One flow's measurement.
#[derive(Debug, Clone, Copy)]
pub struct Speedup {
    /// The flow.
    pub flow: Flow,
    /// Input and engine seed.
    pub seed: u64,
    /// Application waves in a block.
    pub waves: u64,
    /// The fastest adaptive block.
    pub adaptive: Duration,
    /// The fastest synchronous block.
    pub synchronous: Duration,
}

impl Speedup {
    /// `speedup_vs_sdf`: synchronous over adaptive wall time.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.synchronous.as_secs_f64() / self.adaptive.as_secs_f64()
    }
}

/// Application waves in one block: about a tenth of a second each.
fn block_waves(flow: Flow) -> u64 {
    match flow {
        Flow::Pagerank => 300,
        Flow::Lrb | Flow::Aqhi | Flow::Ramp => 1000,
    }
}

/// Trains `flow` at `seed`, then times its application waves both ways.
///
/// # Errors
///
/// Propagates workflow, training, restore and wave failures.
pub fn measure(flow: Flow, seed: u64) -> Result<Speedup, CoreError> {
    let config = flow.engine_config(seed);
    let store = DataStore::new();
    let mut session = SmartFluxSession::new(flow.workflow(seed, &store)?, store, config.clone())?;
    session.run_training()?;
    let start = session.scheduler().next_wave();
    let store_state = session.scheduler().store().export_state();
    let engine_state = session.engine().with(QodEngine::export_state);
    drop(session);

    let waves = block_waves(flow);
    let mut best = [Duration::MAX; 2];
    for repeat in 0..REPEATS {
        for adaptive in [repeat % 2 == 0, repeat % 2 == 1] {
            let store = DataStore::from_state(store_state.clone())?;
            // The steps reach the store through the scheduler; the store a
            // workflow is built over only gets its containers.
            let workflow = flow.workflow(seed, &DataStore::new())?;
            let policy: Box<dyn TriggerPolicy> = if adaptive {
                let mut engine =
                    QodEngine::from_workflow(&workflow, store.clone(), config.clone())?;
                engine.import_state(&engine_state)?;
                Box::new(engine)
            } else {
                Box::new(SynchronousPolicy)
            };
            let mut scheduler = Scheduler::new(workflow, store, policy);
            scheduler.resume(start);
            let began = Instant::now();
            scheduler.run_waves(waves)?;
            let slot = &mut best[usize::from(!adaptive)];
            *slot = (*slot).min(began.elapsed());
        }
    }
    Ok(Speedup {
        flow,
        seed,
        waves,
        adaptive: best[0],
        synchronous: best[1],
    })
}

/// Measures every flow at `seed` and prints one line each.
///
/// # Errors
///
/// As [`measure`].
pub fn run(seed: u64) -> Result<Vec<Speedup>, CoreError> {
    heading("speedup_vs_sdf: application waves, synchronous over adaptive wall time");
    println!("flow,seed,waves,adaptive_us_per_wave,synchronous_us_per_wave,speedup_vs_sdf");
    let mut out = Vec::new();
    for flow in FLOWS {
        let m = measure(flow, seed)?;
        let per_wave = |d: Duration| d.as_secs_f64() * 1e6 / m.waves as f64;
        println!(
            "{},{},{},{:.1},{:.1},{:.3}",
            flow.id(),
            seed,
            m.waves,
            per_wave(m.adaptive),
            per_wave(m.synchronous),
            m.ratio()
        );
        out.push(m);
    }
    Ok(out)
}
