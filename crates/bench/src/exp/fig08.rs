//! Fig. 8: accuracy, precision and recall of the learning model while
//! varying the number of training examples, for error bounds of 5, 10 and
//! 20%.
//!
//! As in the paper, the test examples are "taken in subsequent waves as
//! those of training-sets": we collect one long synchronous log per
//! (workload, bound), train on growing prefixes, and evaluate on the fixed
//! suffix (500 test examples for LRB, 384 for AQHI).

use smartflux::eval::EvalPolicy;
use smartflux::{KnowledgeBase, Predictor};
use smartflux_ml::metrics::MultiLabelReport;

use crate::{heading, pct, write_csv, Workload, BOUNDS};

/// Quality of a model trained on a prefix of the log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Training examples used.
    pub training_examples: usize,
    /// Micro-averaged accuracy on the held-out suffix.
    pub accuracy: f64,
    /// Micro-averaged precision.
    pub precision: f64,
    /// Micro-averaged recall.
    pub recall: f64,
}

fn training_sizes(workload: Workload) -> Vec<usize> {
    match workload {
        Workload::Lrb => vec![100, 200, 300, 400, 500],
        Workload::Aqhi => vec![96, 192, 288, 384],
    }
}

/// Collects the synchronous log spanning the training sizes plus the test
/// suffix for one (workload, bound) pair.
#[must_use]
pub fn collect_log(workload: Workload, bound: f64) -> KnowledgeBase {
    let max_train = *training_sizes(workload).last().expect("non-empty sizes");
    let test_len = workload.application_waves() as usize;
    let mut config = workload.engine_config();
    config.training_waves = max_train + test_len;
    let report = workload.evaluate_policy(bound, EvalPolicy::SmartFlux(Box::new(config)), 1);
    let engine = report.engine.expect("smartflux run provides the engine");
    engine.with(|e| e.knowledge_base().clone())
}

/// Computes the learning curve over one (workload, bound) pair's log.
///
/// # Panics
///
/// Panics if the log is shorter than the largest training size plus one.
#[must_use]
pub fn learning_curve(workload: Workload, log: &KnowledgeBase) -> Vec<CurvePoint> {
    let sizes = training_sizes(workload);
    let max_train = *sizes.last().expect("non-empty sizes");
    assert!(log.len() > max_train, "log too short: {}", log.len());

    // Fixed test suffix.
    let test_rows = &log.rows()[max_train..];

    sizes
        .iter()
        .map(|&n| {
            let mut train_kb = KnowledgeBase::new(log.step_names().to_vec());
            for row in &log.rows()[..n] {
                train_kb
                    .append(row.wave, row.impacts.clone(), row.must_execute.clone())
                    .expect("schema matches");
            }
            let mut predictor = Predictor::new(workload.engine_config().model, 17);
            predictor.train(&train_kb).expect("training succeeds");

            let actual: Vec<Vec<bool>> = test_rows.iter().map(|r| r.must_execute.clone()).collect();
            let predicted: Vec<Vec<bool>> = test_rows
                .iter()
                .map(|r| predictor.predict_all(&r.impacts).expect("trained"))
                .collect();
            let report = MultiLabelReport::from_matrices(&actual, &predicted);
            CurvePoint {
                training_examples: n,
                accuracy: report.pooled().accuracy(),
                precision: report.pooled().precision(),
                recall: report.pooled().recall(),
            }
        })
        .collect()
}

/// Runs the experiment for both workloads across all bounds.
pub fn run() {
    heading("Fig. 8 — accuracy/precision/recall vs training-set size");
    println!("paper reference: LRB accuracy 60–80% (recall ≥86%); AQHI ≥80–95%");
    for wl in [Workload::Lrb, Workload::Aqhi] {
        let mut csv = Vec::new();
        for bound in BOUNDS {
            let log = collect_log(wl, bound);
            let curve = learning_curve(wl, &log);
            println!("\n{} bound {}:", wl.id(), pct(bound));
            println!(
                "  {:>8} {:>9} {:>10} {:>7}",
                "examples", "accuracy", "precision", "recall"
            );
            for p in &curve {
                println!(
                    "  {:>8} {:>9.3} {:>10.3} {:>7.3}",
                    p.training_examples, p.accuracy, p.precision, p.recall
                );
                csv.push(format!(
                    "{},{},{:.4},{:.4},{:.4}",
                    bound, p.training_examples, p.accuracy, p.precision, p.recall
                ));
            }
        }
        write_csv(
            &format!("fig08_learning_{}.csv", wl.id()),
            "bound,training_examples,accuracy,precision,recall",
            &csv,
        );
    }
}
