//! Out-of-bag vs 10-fold: does the engine's test phase reach the verdict
//! the paper's would?
//!
//! §3.2's test phase is 10-fold cross-validation; SmartFlux's engine judges
//! each step's forest by its out-of-bag votes instead, collected while the
//! one forest it keeps is fitted. This experiment runs the four workflows
//! behind the wavebench workloads (`lrb` — also `lrb_served` — `aqhi`,
//! `pagerank_wide` and `ramp_open`) at wavebench's engine settings through
//! their training phase, and then assesses every QoD step's forest both
//! ways from the same knowledge base: the out-of-bag confusion of the
//! forest the engine installed, and a stratified 10-fold cross-validation
//! of the same forest configuration with the test phase's old fold seed.
//! Each estimate gets the gate verdict at the default gates (accuracy 0.7,
//! recall 0.8); one row per step, plus the pooled row the engine gates on.

use smartflux::{CoreError, EngineConfig, ModelKind, SmartFluxSession};
use smartflux_datastore::{ContainerRef, DataStore, Value};
use smartflux_ml::crossval::{build_forests, cross_validate, ForestBuild};
use smartflux_ml::metrics::ConfusionMatrix;
use smartflux_ml::RandomForest;
use smartflux_wms::{FnStep, GraphBuilder, StepContext, Workflow};
use smartflux_workloads::aqhi::AqhiFactory;
use smartflux_workloads::lrb::LrbFactory;
use smartflux_workloads::pagerank::PagerankFactory;

use crate::{heading, write_csv, Workload};

/// Error bound every flow runs at: wavebench's, the paper's tightest.
const BOUND: f64 = 0.05;

/// The seeds wavebench's committed suites run at.
pub const SUITE_SEEDS: [u64; 2] = [17, 29];

/// Ten seeds no suite or alternating pair of the benchmark has run.
pub const UNSEEN_SEEDS: [u64; 10] = [901, 902, 903, 904, 905, 906, 907, 908, 909, 910];

/// Folds of the paper's test phase, clamped to half the log.
const CV_FOLDS: usize = 10;

/// One workflow behind the wavebench workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Linear Road (`lrb`, `lrb_served`).
    Lrb,
    /// Air quality (`aqhi`).
    Aqhi,
    /// PageRank at 1 000 pages, 25 crawled per wave (`pagerank_wide`).
    Pagerank,
    /// The two-step oscillating ramp (`ramp_open`).
    Ramp,
}

/// Every flow, in wavebench's workload order.
pub const FLOWS: [Flow; 4] = [Flow::Lrb, Flow::Aqhi, Flow::Pagerank, Flow::Ramp];

impl Flow {
    /// Short identifier used in the CSV.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Flow::Lrb => "lrb",
            Flow::Aqhi => "aqhi",
            Flow::Pagerank => "pagerank",
            Flow::Ramp => "ramp",
        }
    }

    /// The flow's wavebench engine configuration: fixed-length training at
    /// the workload's length, gates off, the workload's forest and specs.
    /// LRB and AQHI take the headline settings of [`Workload`].
    #[must_use]
    pub fn engine_config(self, seed: u64) -> EngineConfig {
        let fixed_length = |training_waves| {
            EngineConfig::new()
                .with_training_waves(training_waves)
                .with_quality_gates(0.0, 0.0)
        };
        let config = match self {
            Flow::Lrb => Workload::Lrb.engine_config(),
            Flow::Aqhi => Workload::Aqhi.engine_config(),
            Flow::Pagerank => fixed_length(336).with_model(ModelKind::RandomForest {
                trees: 60,
                max_depth: 12,
                threshold: 0.4,
            }),
            Flow::Ramp => fixed_length(256),
        };
        config.with_seed(seed)
    }

    /// The flow's workflow over `store`, its inputs seeded with `seed`.
    pub(crate) fn workflow(self, seed: u64, store: &DataStore) -> Result<Workflow, CoreError> {
        use smartflux::eval::WorkloadFactory;
        match self {
            Flow::Lrb => {
                let mut f = LrbFactory::with_bound(BOUND);
                f.config.seed = seed;
                Ok(f.build(store))
            }
            Flow::Aqhi => {
                let mut f = AqhiFactory::with_bound(BOUND);
                f.config.seed = seed;
                Ok(f.build(store))
            }
            Flow::Pagerank => {
                let mut f = PagerankFactory::with_bound(BOUND);
                f.config.pages = 1000;
                f.config.crawl_batch = 25;
                f.config.seed = seed;
                Ok(f.build(store))
            }
            Flow::Ramp => ramp_workflow(store),
        }
    }
}

/// `ramp_open`'s compute-light two-step workflow, as wavebench builds it: a
/// drifting source feeding one bounded copy.
fn ramp_workflow(store: &DataStore) -> Result<Workflow, CoreError> {
    let raw = ContainerRef::family("t", "raw");
    let out = ContainerRef::family("t", "out");
    for c in [&raw, &out] {
        store.ensure_container(c)?;
    }
    let mut g = GraphBuilder::new("ramp");
    let feed = g.add_step("feed");
    let agg = g.add_step("agg");
    // tidy:allow(panic): two fresh steps and one edge always form a DAG
    g.add_edge(feed, agg).expect("feed -> agg is a valid edge");
    // tidy:allow(panic): as above
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
    Ok(wf)
}

/// One assessed forest (or the pooled row of a flow and seed).
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// The flow.
    pub flow: Flow,
    /// Input and engine seed.
    pub seed: u64,
    /// The QoD step, or `all` for the pooled row the engine gates on.
    pub step: String,
    /// Knowledge-base rows the forest was fitted on.
    pub rows: usize,
    /// Rows with a positive ("must execute") label.
    pub positives: usize,
    /// The out-of-bag confusion of the installed forest.
    pub oob: ConfusionMatrix,
    /// The pooled held-out confusion of the 10-fold cross-validation.
    pub cv: ConfusionMatrix,
}

/// Verdict of one estimate at the engine's default gates.
#[must_use]
pub fn passes(confusion: &ConfusionMatrix) -> bool {
    let gates = EngineConfig::new();
    confusion.accuracy() >= gates.min_accuracy && confusion.recall() >= gates.min_recall
}

impl Case {
    /// Whether both estimates give the same verdict.
    #[must_use]
    pub fn agrees(&self) -> bool {
        passes(&self.oob) == passes(&self.cv)
    }
}

/// Runs `flow` at `seed` through its training phase and assesses every
/// step's forest both ways; the last case is the pooled row.
///
/// # Errors
///
/// Propagates workflow, training and fitting failures.
///
/// # Panics
///
/// Panics if the out-of-bag estimate recomputed here is not the one the
/// engine reported (a bug, not an input condition).
pub fn assess(flow: Flow, seed: u64) -> Result<Vec<Case>, CoreError> {
    let store = DataStore::new();
    let config = flow.engine_config(seed);
    let kind = config.model.clone();
    let mut session = SmartFluxSession::new(flow.workflow(seed, &store)?, store, config)?;
    session.run_training()?;
    let kb = session.knowledge_base();
    let reported = session.predictor_quality().ok_or(CoreError::NotTrained)?;

    let views = (0..kb.step_names().len())
        .map(|j| kb.label_dataset(j))
        .collect::<Result<Vec<_>, _>>()?;
    let forest = |j: usize| {
        let ModelKind::RandomForest {
            trees,
            max_depth,
            threshold,
        } = kind;
        RandomForest::new(trees)
            .with_max_depth(max_depth)
            .with_threshold(threshold)
            .with_seed(seed.wrapping_add(j as u64))
    };
    let builds: Vec<ForestBuild<'_>> = views
        .iter()
        .enumerate()
        .map(|(j, view)| ForestBuild::new(forest(j), view).with_out_of_bag(true))
        .collect();
    let built = build_forests(&builds)?;

    let mut cases = views
        .iter()
        .zip(built)
        .enumerate()
        .map(|(j, (view, built))| {
            let k = CV_FOLDS.min(view.len() / 2).max(2);
            let cv = cross_validate(view, k, seed.wrapping_add(j as u64), || forest(j))?;
            Ok(Case {
                flow,
                seed,
                step: kb.step_names()[j].clone(),
                rows: view.len(),
                positives: view.y().iter().filter(|&&y| y).count(),
                oob: built.out_of_bag.unwrap_or_default(),
                cv: cv.confusion,
            })
        })
        .collect::<Result<Vec<Case>, CoreError>>()?;
    let mut pooled = Case {
        flow,
        seed,
        step: "all".to_owned(),
        rows: 0,
        positives: 0,
        oob: ConfusionMatrix::default(),
        cv: ConfusionMatrix::default(),
    };
    for case in &cases {
        pooled.rows += case.rows;
        pooled.positives += case.positives;
        pooled.oob.merge(&case.oob);
        pooled.cv.merge(&case.cv);
    }
    assert_eq!(
        (reported.accuracy, reported.precision, reported.recall),
        (
            pooled.oob.accuracy(),
            pooled.oob.precision(),
            pooled.oob.recall()
        ),
        "{} seed {seed}: the engine's test phase is this out-of-bag estimate",
        flow.id()
    );
    cases.push(pooled);
    Ok(cases)
}

/// Runs every flow at every seed in `seeds`, prints the disagreements and
/// writes `results/oob_agreement.csv`.
///
/// # Errors
///
/// As [`assess`].
pub fn run(seeds: &[u64]) -> Result<(), CoreError> {
    heading("Test phase: out-of-bag vs 10-fold cross-validation");
    println!("gates: accuracy >= 0.7 and recall >= 0.8 (engine defaults)");
    let mut csv = Vec::new();
    let mut disagreements = Vec::new();
    let (mut steps, mut pooled) = (0, 0);
    for &seed in seeds {
        for flow in FLOWS {
            for case in assess(flow, seed)? {
                let row = format!(
                    "{},{},{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{},{}",
                    flow.id(),
                    seed,
                    case.step,
                    case.rows,
                    case.positives,
                    case.oob.accuracy(),
                    case.oob.precision(),
                    case.oob.recall(),
                    case.cv.accuracy(),
                    case.cv.precision(),
                    case.cv.recall(),
                    u8::from(passes(&case.oob)),
                    u8::from(passes(&case.cv)),
                );
                if case.step == "all" {
                    pooled += 1;
                } else {
                    steps += 1;
                }
                if !case.agrees() {
                    disagreements.push(row.clone());
                }
                csv.push(row);
            }
        }
    }
    println!(
        "{steps} step cases and {pooled} pooled cases over {} seeds; {} verdict disagreements",
        seeds.len(),
        disagreements.len()
    );
    for row in &disagreements {
        println!("  disagrees: {row}");
    }
    write_csv(
        "oob_agreement.csv",
        "flow,seed,step,rows,positives,oob_accuracy,oob_precision,oob_recall,\
         cv_accuracy,cv_precision,cv_recall,oob_pass,cv_pass",
        &csv,
    );
    Ok(())
}
