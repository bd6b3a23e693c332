//! Integration: the full SmartFlux life-cycle — training phase, test phase,
//! application phase — over the AQHI workload.

use smartflux::eval::WorkloadFactory;
use smartflux::{EngineConfig, ImpactCombiner, ModelKind, Phase, QodSpec, SmartFluxSession};
use smartflux_datastore::DataStore;
use smartflux_workloads::aqhi::{AqhiConfig, AqhiFactory};

fn small_factory(bound: f64) -> AqhiFactory {
    AqhiFactory {
        config: AqhiConfig {
            grid: 4,
            zone_size: 2,
            bound,
            ..AqhiConfig::default()
        },
    }
}

fn session(bound: f64, training_waves: usize) -> SmartFluxSession {
    let factory = small_factory(bound);
    let store = DataStore::new();
    let workflow = factory.build(&store);
    let spec = QodSpec::new().with_combiner(ImpactCombiner::Max);
    let config = EngineConfig::new()
        .with_training_waves(training_waves)
        .with_model(ModelKind::RandomForest {
            trees: 30,
            max_depth: 10,
            threshold: 0.4,
        })
        .with_quality_gates(0.0, 0.0)
        .with_default_spec(spec)
        .with_seed(5);
    SmartFluxSession::new(workflow, store, config).expect("aqhi declares QoD steps")
}

#[test]
fn training_collects_knowledge_and_builds_a_model() {
    let mut s = session(0.10, 96);
    assert!(matches!(s.phase(), Phase::Training { .. }));
    let waves = s.run_training().expect("training succeeds");
    assert!(waves >= 96);
    assert_eq!(s.phase(), Phase::Application);

    let kb = s.knowledge_base();
    assert_eq!(kb.len() as u64, waves);
    assert_eq!(kb.step_names().len(), 5);
    // Labels must be informative: some steps execute sometimes, not never
    // and not always across the board.
    let rates: Vec<f64> = (0..5).map(|j| kb.positive_rate(j)).collect();
    assert!(
        rates.iter().any(|&r| r > 0.05 && r < 0.95),
        "degenerate label rates: {rates:?}"
    );
    let quality = s.predictor_quality().expect("model was built");
    assert!(quality.accuracy > 0.6, "accuracy {}", quality.accuracy);
}

#[test]
fn application_phase_skips_executions() {
    let mut s = session(0.10, 96);
    s.run_training().expect("training succeeds");
    s.run_waves(72).expect("application waves succeed");
    let stats = s.scheduler().stats();
    assert!(
        stats.total_skips() > 0,
        "adaptive phase should skip some executions"
    );
    // Diagnostics cover training + application waves.
    let diags = s.diagnostics();
    let app = diags.iter().filter(|d| !d.training).count();
    assert_eq!(app, 72);
}

#[test]
fn retraining_resets_the_knowledge_base() {
    let mut s = session(0.10, 48);
    s.run_training().expect("training succeeds");
    let first_len = s.knowledge_base().len();
    assert!(first_len >= 48);

    s.request_training(24);
    assert!(matches!(s.phase(), Phase::Training { .. }));
    s.run_training().expect("retraining succeeds");
    let second_len = s.knowledge_base().len();
    assert!(second_len >= 24 && second_len < first_len);
    assert_eq!(s.phase(), Phase::Application);
}

#[test]
fn pretrained_knowledge_skips_the_training_phase() {
    // Collect a knowledge base the normal way…
    let mut donor = session(0.10, 96);
    donor.run_training().expect("training succeeds");

    // …and boot a fresh deployment on it straight into the application
    // phase (§3.2 "Unless a training set is given beforehand").
    let factory = small_factory(0.10);
    let store = DataStore::new();
    let workflow = factory.build(&store);
    let spec = QodSpec::new().with_combiner(ImpactCombiner::Max);
    let config = EngineConfig::new()
        .with_model(ModelKind::RandomForest {
            trees: 30,
            max_depth: 10,
            threshold: 0.4,
        })
        .with_quality_gates(0.0, 0.0)
        .with_default_spec(spec)
        .with_initial_knowledge(donor.knowledge_base())
        .with_seed(5);
    let mut s = SmartFluxSession::new(workflow, store, config).expect("valid config");
    assert_eq!(s.phase(), Phase::Application, "no synchronous phase needed");
    s.run_waves(24).expect("adaptive waves succeed");
    assert!(s.predictor_quality().is_some());
}

#[test]
fn mismatched_initial_knowledge_is_rejected() {
    let factory = small_factory(0.10);
    let store = DataStore::new();
    let workflow = factory.build(&store);
    let mut alien = smartflux::KnowledgeBase::new(vec!["other".into()]);
    for w in 0..16 {
        alien.append(w, vec![w as f64], vec![w % 2 == 0]).unwrap();
    }
    let config = EngineConfig::new().with_initial_knowledge(alien);
    let err = SmartFluxSession::new(workflow, store, config).unwrap_err();
    assert!(err.to_string().contains("per-step values"));
}
