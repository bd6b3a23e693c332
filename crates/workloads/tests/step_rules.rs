//! The engine-level step-rule oracle: on a trained `lrb` and `aqhi`
//! session, the predictor's rule-served answers equal its forests' own.
//!
//! Every query point is a real one: each knowledge-base row the forests
//! were fitted on, and each impact vector the engine queried in the
//! application phase. At each, `predict_step`, `predict_all` and
//! `predict_proba` must give what the forests' own walk gives, `to_bits`
//! on the votes.

use smartflux::eval::WorkloadFactory;
use smartflux::{EngineConfig, ImpactCombiner, Predictor, QodSpec, SmartFluxSession};
use smartflux_datastore::DataStore;
use smartflux_ml::Classifier;
use smartflux_workloads::aqhi::AqhiFactory;
use smartflux_workloads::lrb::{self, LrbFactory};

const TRAINING: usize = 60;
const APPLICATION: u64 = 40;
const SEED: u64 = 17;

fn sessions() -> Vec<(&'static str, SmartFluxSession)> {
    let config = EngineConfig::new()
        .with_training_waves(TRAINING)
        .with_quality_gates(0.0, 0.0)
        .with_seed(SEED);
    let mut lrb = LrbFactory::with_bound(0.05);
    lrb.config.seed = SEED;
    let mut aqhi = AqhiFactory::with_bound(0.05);
    aqhi.config.seed = SEED;
    let cases: [(&str, Box<dyn WorkloadFactory>, EngineConfig); 2] = [
        (
            "lrb",
            Box::new(lrb),
            config
                .clone()
                .with_step_spec("classify", lrb::classify_qod_spec()),
        ),
        (
            "aqhi",
            Box::new(aqhi),
            config.with_default_spec(QodSpec::default().with_combiner(ImpactCombiner::Max)),
        ),
    ];
    cases
        .into_iter()
        .map(|(name, factory, config)| {
            let store = DataStore::new();
            let workflow = factory.build(&store);
            let mut session = SmartFluxSession::new(workflow, store, config).unwrap();
            session.run_waves(TRAINING as u64 + APPLICATION).unwrap();
            (name, session)
        })
        .collect()
}

/// Asserts the predictor's three query paths answer `impacts` as its
/// forests do.
fn assert_rules_answer_as_forests(p: &Predictor, impacts: &[f64], what: &str) {
    let labels = impacts.len();
    let votes = p.predict_proba(impacts).unwrap();
    let decisions = p.predict_all(impacts).unwrap();
    for j in 0..labels {
        let forest = p.forest(j).unwrap();
        let x = &impacts[j..=j];
        let want = forest.predict_proba(x);
        assert_eq!(
            votes[j].to_bits(),
            want.to_bits(),
            "{what}: label {j} at {x:?}"
        );
        assert_eq!(
            decisions[j],
            forest.predict(x),
            "{what}: label {j} at {x:?}"
        );
        assert_eq!(
            p.predict_step(j, impacts).unwrap(),
            decisions[j],
            "{what}: label {j}"
        );
        assert_eq!(
            p.rule(j).unwrap().vote(x[0]).to_bits(),
            want.to_bits(),
            "{what}"
        );
    }
}

#[test]
fn step_rules_answer_every_real_query_as_the_forests_do() {
    for (name, session) in sessions() {
        let kb = session.knowledge_base();
        assert!(kb.len() >= TRAINING, "{name}: {} rows", kb.len());
        session.engine().with(|e| {
            let p = e.predictor();
            assert!(p.is_trained(), "{name} never trained");
            for row in kb.rows() {
                assert_rules_answer_as_forests(p, &row.impacts, name);
            }
            let applied: Vec<_> = e.diagnostics().since(0).filter(|d| !d.training).collect();
            assert!(
                !applied.is_empty(),
                "{name} never reached the application phase"
            );
            for row in applied {
                assert_rules_answer_as_forests(p, &row.impacts, name);
            }
        });
    }
}
