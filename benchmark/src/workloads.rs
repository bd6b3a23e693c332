//! The five workloads: what runs, at which size, and why each is here.
//!
//! Names and reasons are normative — `BENCHMARK.json`, the README and later
//! issues cite them, and a unit test keeps this table and `BENCHMARK.json`
//! in step.

use smartflux::eval::WorkloadFactory;
use smartflux::{EngineConfig, ImpactCombiner, MetricKind, ModelKind, QodSpec};
use smartflux_datastore::{ContainerRef, DataStore, Value};
use smartflux_net::{ContainerWrite, WorkflowRegistry};
use smartflux_wms::{FnStep, GraphBuilder, StepContext, Workflow};
use smartflux_workloads::aqhi::AqhiFactory;
use smartflux_workloads::lrb::{self, LrbFactory};
use smartflux_workloads::pagerank::PagerankFactory;

/// Error bound (`maxε`) every workload runs at: the paper's tightest.
pub const BOUND: f64 = 0.05;

/// Table and family of the unwatched container served workloads ingest
/// their per-wave client writes into. No step reads it, so the engine's
/// decisions are those of the same workflow without ingest.
pub const SIDE_TABLE: &str = "side";
pub const SIDE_FAMILY: &str = "feed";

/// How a workload is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// `SmartFluxSession::run_wave` in a closed loop on one thread.
    InProcess,
    /// `Client::submit_wave` round trips over loopback SFNP to a durable
    /// session, closed loop, one connection.
    ServedClosed,
    /// Two connections, each submitting on a fixed schedule to its own
    /// durable session, whether or not the previous wave has answered.
    ServedOpen,
}

/// Which workflow a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    Lrb,
    Aqhi,
    Pagerank,
    Ramp,
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub flow: Flow,
    pub drive: Drive,
    /// Fixed-length training phase (quality gates are off, as in the
    /// paper's runs, so set-up is the same work for every seed).
    pub training_waves: usize,
    /// Application-wave prefix that the exact counts (`saved_ratio`,
    /// `bound_confidence`, checksums) cover. A run keeps going past
    /// `--seconds` until it has completed at least this many, so the
    /// counts never depend on how fast the host is.
    pub audit_waves: u64,
    /// Client writes shipped with every served wave.
    pub writes_per_wave: usize,
    /// A decision query is issued after every this-many-th wave.
    pub query_every: u64,
    /// Connections (= sessions = client threads) of a served workload.
    pub connections: usize,
    /// Open loop only: submissions per second per connection. Frozen at
    /// about half the closed-loop capacity measured on the seed commit
    /// (README, "ramp_open rate"); a change that slows the plane raises
    /// latency here long before the backlog grows.
    pub rate_wps: u64,
    /// Served only: waves between checkpoints of a durable session.
    /// `lrb_served` keeps the host's default (20), so checkpoints land in
    /// its tail and crash recovery has something to resume from.
    /// `ramp_open` never reaches one ([`NO_CHECKPOINTS`]): a checkpoint
    /// syncs to disk, which on the seed host stalls a session 30-300 ms —
    /// hundreds of due submissions at the fixed rate — so with periodic
    /// checkpoints its latency measured the disk, not the plane and the
    /// WAL commit it is here for.
    pub checkpoint_interval: u64,
    /// Set-ups timed per run; `setup_s` is their median.
    pub setups: usize,
}

/// A checkpoint interval no run reaches.
pub const NO_CHECKPOINTS: u64 = 1 << 40;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "lrb",
        why: "Paper's primary workload in-process: engine bookkeeping is most of the wave, steps a third, net/durability idle - where O(writes) monitoring must show.",
        flow: Flow::Lrb,
        drive: Drive::InProcess,
        training_waves: 1000,
        audit_waves: 500,
        writes_per_wave: 0,
        query_every: 100,
        connections: 1,
        rate_wps: 0,
        checkpoint_interval: 0,
        setups: 3,
    },
    Workload {
        name: "aqhi",
        why: "Paper's second workload: two monitored inputs per step (Max combiner) and the largest forest; steps are a fifth of the wave - the only place ml could show.",
        flow: Flow::Aqhi,
        drive: Drive::InProcess,
        training_waves: 768,
        audit_waves: 1000,
        writes_per_wave: 0,
        query_every: 100,
        connections: 1,
        rate_wps: 0,
        checkpoint_interval: 0,
        setups: 5,
    },
    Workload {
        name: "pagerank_wide",
        why: "Large state, sparse writes, heavy steps: step compute and O(container) snapshot+diff dominate; a skip-quality change moves a lot, a bookkeeping constant little.",
        flow: Flow::Pagerank,
        drive: Drive::InProcess,
        training_waves: 336,
        audit_waves: 200,
        writes_per_wave: 0,
        query_every: 50,
        connections: 1,
        rate_wps: 0,
        checkpoint_interval: 0,
        setups: 3,
    },
    Workload {
        name: "lrb_served",
        why: "The lrb waves through SFNP, host queue, WAL and checkpoints with 16 ingest writes each and decision queries beside them; the delta to lrb is the plane.",
        flow: Flow::Lrb,
        drive: Drive::ServedClosed,
        training_waves: 1000,
        audit_waves: 500,
        writes_per_wave: 16,
        query_every: 100,
        connections: 1,
        rate_wps: 0,
        checkpoint_interval: 20,
        setups: 2,
    },
    Workload {
        name: "ramp_open",
        why: "Open loop at a fixed rate, two durable sessions on one processor, near-zero wave compute: codec, queue, ingest and WAL are the latency; core/ml/workloads changes must not move it.",
        flow: Flow::Ramp,
        drive: Drive::ServedOpen,
        training_waves: 256,
        audit_waves: 4000,
        writes_per_wave: 64,
        query_every: 200,
        connections: 2,
        rate_wps: 2000,
        checkpoint_interval: NO_CHECKPOINTS,
        setups: 9,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Whether waves travel over the network plane.
    #[must_use]
    pub fn served(&self) -> bool {
        self.drive != Drive::InProcess
    }

    /// The seeded workflow factory. `side` adds the unwatched ingest
    /// container (served sessions and their in-process shadow).
    #[must_use]
    pub fn factory(&self, seed: u64, side: bool) -> Factory {
        let flow = match self.flow {
            Flow::Lrb => {
                let mut f = LrbFactory::with_bound(BOUND);
                f.config.seed = seed;
                FlowFactory::Lrb(f)
            }
            Flow::Aqhi => {
                let mut f = AqhiFactory::with_bound(BOUND);
                f.config.seed = seed;
                FlowFactory::Aqhi(f)
            }
            Flow::Pagerank => {
                let mut f = PagerankFactory::with_bound(BOUND);
                f.config.pages = 1000;
                f.config.crawl_batch = 25;
                f.config.seed = seed;
                FlowFactory::Pagerank(f)
            }
            Flow::Ramp => FlowFactory::Ramp,
        };
        Factory { flow, side }
    }

    /// The engine configuration: the paper-figure harness's settings per
    /// workflow, fixed-length training, seeded from `--seed`.
    #[must_use]
    pub fn engine_config(&self, seed: u64) -> EngineConfig {
        let config = EngineConfig::new()
            .with_training_waves(self.training_waves)
            .with_quality_gates(0.0, 0.0)
            .with_seed(seed);
        match self.flow {
            // §5.2: LRB's classifier is optimised for recall, and
            // `classify` counts toll-class boundary crossings.
            Flow::Lrb => config
                .with_model(ModelKind::recall_optimised())
                .with_step_spec("classify", lrb::classify_qod_spec()),
            // AQHI steps monitor their direct input and the raw readings;
            // the strongest signal wins.
            Flow::Aqhi => config
                .with_model(ModelKind::RandomForest {
                    trees: 100,
                    max_depth: 12,
                    threshold: 0.35,
                })
                .with_default_spec(QodSpec::default().with_combiner(ImpactCombiner::Max)),
            Flow::Pagerank => config.with_model(ModelKind::RandomForest {
                trees: 60,
                max_depth: 12,
                threshold: 0.4,
            }),
            Flow::Ramp => config,
        }
    }

    /// The error metric the twin-run audit measures output deviation with.
    #[must_use]
    pub fn audit_metric(&self) -> MetricKind {
        match self.flow {
            Flow::Ramp => MetricKind::RelativeError,
            _ => MetricKind::MeanRelative,
        }
    }

    /// A host registry holding this workload under its own name.
    #[must_use]
    pub fn registry(&self, seed: u64, telemetry: bool, hook: StoreHook) -> WorkflowRegistry {
        let factory = self.factory(seed, true);
        let mut registry = WorkflowRegistry::new();
        registry.register(
            self.name,
            self.engine_config(seed).with_telemetry(telemetry),
            move |store: &DataStore| {
                hook(store);
                factory.build(store)
            },
        );
        registry
    }
}

/// Called with every store a registry entry builds a workflow over — the
/// only way to reach a served session's store from outside the host.
pub type StoreHook = std::sync::Arc<dyn Fn(&DataStore) + Send + Sync>;

#[derive(Debug, Clone)]
enum FlowFactory {
    Lrb(LrbFactory),
    Aqhi(AqhiFactory),
    Pagerank(PagerankFactory),
    Ramp,
}

/// A seeded workflow factory for any workload (`evaluate` wants a sized
/// type, so the four workflows share this one).
#[derive(Debug, Clone)]
pub struct Factory {
    flow: FlowFactory,
    side: bool,
}

impl WorkloadFactory for Factory {
    fn build(&self, store: &DataStore) -> Workflow {
        if self.side {
            store
                .ensure_container(&ContainerRef::family(SIDE_TABLE, SIDE_FAMILY))
                .expect("a fresh store accepts the side container");
        }
        match &self.flow {
            FlowFactory::Lrb(f) => f.build(store),
            FlowFactory::Aqhi(f) => f.build(store),
            FlowFactory::Pagerank(f) => f.build(store),
            FlowFactory::Ramp => ramp_workflow(store),
        }
    }

    fn output_step(&self) -> &str {
        match &self.flow {
            FlowFactory::Lrb(f) => f.output_step(),
            FlowFactory::Aqhi(f) => f.output_step(),
            FlowFactory::Pagerank(f) => f.output_step(),
            FlowFactory::Ramp => "agg",
        }
    }

    fn name(&self) -> &str {
        match &self.flow {
            FlowFactory::Lrb(f) => f.name(),
            FlowFactory::Aqhi(f) => f.name(),
            FlowFactory::Pagerank(f) => f.name(),
            FlowFactory::Ramp => "ramp",
        }
    }
}

/// The compute-light two-step workflow of `ramp_open` (the shape the
/// `net_throughput` micro-bench uses): a drifting source feeding one
/// bounded copy, so a wave costs microseconds and the plane is what is
/// measured. The oscillation keeps the ι→ε relation learnable.
fn ramp_workflow(store: &DataStore) -> Workflow {
    let raw = ContainerRef::family("t", "raw");
    let out = ContainerRef::family("t", "out");
    for c in [&raw, &out] {
        store
            .ensure_container(c)
            .expect("a fresh store accepts the ramp containers");
    }
    let mut g = GraphBuilder::new("ramp");
    let feed = g.add_step("feed");
    let agg = g.add_step("agg");
    g.add_edge(feed, agg).expect("feed -> agg is a valid edge");
    let mut wf = Workflow::new(g.build().expect("two steps and one edge form a DAG"));
    wf.bind(
        feed,
        FnStep::new(|ctx: &StepContext| {
            let w = ctx.wave() as f64;
            let v = 100.0 + (w / 40.0).sin() * 30.0 + (w / 7.0).sin() * 3.0;
            ctx.put("t", "raw", "r", "v", Value::from(v))?;
            Ok(())
        }),
    )
    .source()
    .writes(raw.clone());
    wf.bind(
        agg,
        FnStep::new(|ctx: &StepContext| {
            let v = ctx.get_f64("t", "raw", "r", "v", 0.0)?;
            ctx.put("t", "out", "r", "v", Value::from(v))?;
            Ok(())
        }),
    )
    .reads(raw)
    .writes(out)
    .error_bound(BOUND);
    wf
}

/// splitmix64: the benchmark's only randomness, a pure function of its
/// argument so inputs depend on `--seed` and nothing else.
#[must_use]
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The client writes shipped with `wave` on `connection`: `count` cells of
/// the side container, values drawn from the seed.
#[must_use]
pub fn side_writes(seed: u64, connection: usize, wave: u64, count: usize) -> Vec<ContainerWrite> {
    (0..count)
        .map(|i| {
            let r = mix(seed ^ mix(wave ^ ((connection as u64) << 48) ^ ((i as u64) << 32)));
            ContainerWrite {
                table: SIDE_TABLE.to_owned(),
                family: SIDE_FAMILY.to_owned(),
                row: format!("s{i:03}"),
                qualifier: "v".to_owned(),
                value: Value::from((r >> 11) as f64 / (1u64 << 53) as f64 * 100.0),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn benchmark_json_names_these_workloads_with_these_reasons() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed: Vec<(String, String)> = doc
            .get("workloads")
            .expect("workloads key")
            .as_arr()
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).unwrap().to_owned(),
                    w.get("why").and_then(Json::as_str).unwrap().to_owned(),
                )
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_owned(), w.why.to_owned()))
            .collect();
        assert_eq!(listed, ours);
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
    }

    #[test]
    fn side_writes_depend_on_seed_wave_and_connection_only() {
        assert_eq!(side_writes(1, 0, 5, 4), side_writes(1, 0, 5, 4));
        assert_ne!(side_writes(1, 0, 5, 4), side_writes(2, 0, 5, 4));
        assert_ne!(side_writes(1, 0, 5, 4), side_writes(1, 1, 5, 4));
        assert_ne!(side_writes(1, 0, 5, 4), side_writes(1, 0, 6, 4));
    }

    #[test]
    fn every_workflow_builds_and_names_its_output_step() {
        for w in &WORKLOADS {
            let store = DataStore::new();
            let factory = w.factory(3, w.served());
            let wf = factory.build(&store);
            assert!(
                wf.graph().step_id(factory.output_step()).is_some(),
                "{}",
                w.name
            );
            assert_eq!(store.has_table(SIDE_TABLE), w.served());
        }
    }
}
