//! Criterion benches of the six classification algorithms' fit and predict
//! costs on a SmartFlux-shaped training set (§3.2's comparison, cost axis).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use smartflux_bench::classifiers::{
    GaussianNaiveBayes, LinearSvm, LogisticRegression, NeuralNetwork,
};
use smartflux_ml::{Classifier, Dataset, DecisionTree, RandomForest};

/// A noisy threshold problem of the size SmartFlux trains per label:
/// a few hundred waves, one impact feature.
fn training_data() -> Dataset {
    let n = 500;
    let x: Vec<Vec<f64>> = (0..n).map(|i| vec![((i * 37) % 101) as f64]).collect();
    let y: Vec<bool> = x
        .iter()
        .enumerate()
        .map(|(i, r)| r[0] > 50.0 || i % 19 == 0)
        .collect();
    Dataset::new(x, y).expect("well-formed data")
}

fn bench_fit(c: &mut Criterion) {
    let data = training_data();
    let mut group = c.benchmark_group("fit_500x1");
    group.sample_size(20);
    group.bench_function("naive_bayes", |b| {
        b.iter(|| {
            let mut m = GaussianNaiveBayes::new();
            m.fit(black_box(&data)).expect("fit succeeds");
            black_box(m.predict(&[40.0]))
        });
    });
    group.bench_function("decision_tree", |b| {
        b.iter(|| {
            let mut m = DecisionTree::new();
            m.fit(black_box(&data)).expect("fit succeeds");
            black_box(m.predict(&[40.0]))
        });
    });
    group.bench_function("logistic", |b| {
        b.iter(|| {
            let mut m = LogisticRegression::new();
            m.fit(black_box(&data)).expect("fit succeeds");
            black_box(m.predict(&[40.0]))
        });
    });
    group.bench_function("random_forest_60", |b| {
        b.iter(|| {
            let mut m = RandomForest::new(60).with_max_depth(12).with_seed(7);
            m.fit(black_box(&data)).expect("fit succeeds");
            black_box(m.predict(&[40.0]))
        });
    });
    group.bench_function("svm", |b| {
        b.iter(|| {
            let mut m = LinearSvm::new().with_seed(7);
            m.fit(black_box(&data)).expect("fit succeeds");
            black_box(m.predict(&[40.0]))
        });
    });
    group.bench_function("mlp_8x150", |b| {
        b.iter(|| {
            let mut m = NeuralNetwork::new(8).with_epochs(150).with_seed(7);
            m.fit(black_box(&data)).expect("fit succeeds");
            black_box(m.predict(&[40.0]))
        });
    });
    group.finish();
}

/// The training set a session builds each label's forest from, at `aqhi`'s
/// size: 768 waves of one near-continuous impact (the step's own), the
/// label a threshold on it with one wave in sixteen flipped — noise is what
/// makes the trees deep, and depth is what induction costs.
fn session_shaped() -> Dataset {
    let mut state = 0x5EED_u64;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let x: Vec<Vec<f64>> = (0..768)
        .map(|_| vec![(next() % 100_000) as f64 / 1000.0])
        .collect();
    let y = x
        .iter()
        .map(|r| (r[0] > 50.0) ^ (next() % 16 == 0))
        .collect();
    Dataset::new(x, y).expect("well-formed data")
}

/// The model build's kernel: one forest fit at the default `ModelKind`
/// (60 trees, depth 12) on the host's workers.
fn bench_forest_fit(c: &mut Criterion) {
    let data = session_shaped();
    let mut group = c.benchmark_group("fit_768x1");
    group.sample_size(20);
    group.bench_function("random_forest_60", |b| {
        b.iter(|| {
            let mut m = RandomForest::new(60).with_max_depth(12).with_seed(7);
            m.fit(black_box(&data)).expect("fit succeeds");
            black_box(m.arena().n_nodes())
        });
    });
    group.finish();
}

fn bench_predict(c: &mut Criterion) {
    let data = training_data();
    let mut forest = RandomForest::new(60).with_max_depth(12).with_seed(7);
    forest.fit(&data).expect("fit succeeds");
    let mut tree = DecisionTree::new();
    tree.fit(&data).expect("fit succeeds");

    let mut group = c.benchmark_group("predict_one");
    group.bench_function("random_forest_60", |b| {
        b.iter(|| black_box(forest.predict_proba(black_box(&[40.0]))));
    });
    group.bench_function("decision_tree", |b| {
        b.iter(|| black_box(tree.predict_proba(black_box(&[40.0]))));
    });
    group.finish();
}

criterion_group!(benches, bench_fit, bench_forest_fit, bench_predict);
criterion_main!(benches);
