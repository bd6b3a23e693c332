//! The model build and its test phases.
//!
//! [`build_forests`] fits a batch of forests, one job per forest on one
//! pool of workers; SmartFlux's test phase is each forest's out-of-bag
//! estimate, collected during that one fit. Stratified k-fold
//! cross-validation — the paper's 10-fold test phase — stays for the
//! experiments that reproduce or compare against it.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::forest::RandomForest;
use crate::metrics::ConfusionMatrix;
use crate::pool;
use crate::Classifier;

/// Produces stratified fold assignments: positives and negatives are split
/// separately so every fold preserves the class ratio.
///
/// Returns, for each fold, the list of instance indices belonging to it.
/// Folds are deterministic for a given seed.
///
/// # Panics
///
/// Panics if `k < 2` or `k > labels.len()`.
#[must_use]
pub fn stratified_folds(labels: &[bool], k: usize, seed: u64) -> Vec<Vec<usize>> {
    assert!(k >= 2, "need at least two folds");
    assert!(k <= labels.len(), "more folds than instances");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pos: Vec<usize> = (0..labels.len()).filter(|&i| labels[i]).collect();
    let mut neg: Vec<usize> = (0..labels.len()).filter(|&i| !labels[i]).collect();
    pos.shuffle(&mut rng);
    neg.shuffle(&mut rng);

    let mut folds = vec![Vec::new(); k];
    for (j, &i) in pos.iter().enumerate() {
        folds[j % k].push(i);
    }
    // Continue the round-robin where the positives left off instead of
    // restarting at fold 0. With both classes starting at fold 0, the
    // `len % k` leftovers of BOTH classes piled onto the early folds,
    // overloading them by up to two instances and skewing the class
    // ratio whenever the minority class was small.
    let offset = pos.len() % k;
    for (j, &i) in neg.iter().enumerate() {
        folds[(offset + j) % k].push(i);
    }
    for fold in &mut folds {
        fold.sort_unstable();
    }
    let largest = folds.iter().map(Vec::len).max().unwrap_or(0);
    let smallest = folds.iter().map(Vec::len).min().unwrap_or(0);
    debug_assert!(
        largest - smallest <= 1,
        "stratified folds out of balance: sizes span {smallest}..{largest}"
    );
    folds
}

/// Result of a cross-validation run: the pooled confusion matrix across all
/// held-out folds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossValResult {
    /// Pooled confusion counts over every held-out instance.
    pub confusion: ConfusionMatrix,
    /// Number of folds evaluated.
    pub folds: usize,
}

impl CrossValResult {
    /// Cross-validated accuracy.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        self.confusion.accuracy()
    }

    /// Cross-validated precision.
    #[must_use]
    pub fn precision(&self) -> f64 {
        self.confusion.precision()
    }

    /// Cross-validated recall.
    #[must_use]
    pub fn recall(&self) -> f64 {
        self.confusion.recall()
    }
}

/// Fits `model` on the rows of `data` outside `held_out` and scores it on
/// `held_out`: one fold of a test phase, building its own training set. A
/// fold that leaves nothing to train on scores nothing.
fn fit_fold<C: Classifier>(
    mut model: C,
    data: &Dataset,
    held_out: &[usize],
) -> Result<ConfusionMatrix, MlError> {
    let mut held = vec![false; data.len()];
    for &i in held_out {
        held[i] = true;
    }
    let train_idx: Vec<usize> = (0..data.len()).filter(|&i| !held[i]).collect();
    if train_idx.is_empty() {
        return Ok(ConfusionMatrix::default());
    }
    model.fit(&data.subset(&train_idx))?;
    let actual: Vec<bool> = held_out.iter().map(|&i| data.label(i)).collect();
    let predicted: Vec<bool> = held_out
        .iter()
        .map(|&i| model.predict(data.features(i)))
        .collect();
    Ok(ConfusionMatrix::from_pairs(&actual, &predicted))
}

/// Runs k-fold cross-validation of `make_model` over `data`.
///
/// `make_model` is called once per fold to obtain a fresh classifier, which
/// is trained on the other `k−1` folds and evaluated on the held-out fold.
/// This is how the paper's test phase "assesses the quality of the trained
/// model"; SmartFlux's engine gets the same held-out judgement from the
/// final forest's out-of-bag votes ([`ForestBuild::with_out_of_bag`]). The
/// folds are fitted side by side, one per job.
///
/// # Errors
///
/// Propagates training errors from the base classifier.
///
/// # Panics
///
/// Panics if `k < 2` or `k > data.len()`.
///
/// # Example
///
/// ```
/// use smartflux_ml::crossval::cross_validate;
/// use smartflux_ml::{Dataset, DecisionTree};
///
/// let data = Dataset::new(
///     (0..50).map(|i| vec![i as f64]).collect(),
///     (0..50).map(|i| i >= 25).collect(),
/// ).unwrap();
/// let result = cross_validate(&data, 10, 0, || DecisionTree::new()).unwrap();
/// assert!(result.accuracy() > 0.9);
/// ```
pub fn cross_validate<C, F>(
    data: &Dataset,
    k: usize,
    seed: u64,
    make_model: F,
) -> Result<CrossValResult, MlError>
where
    C: Classifier,
    F: Fn() -> C + Sync,
{
    let folds = stratified_folds(data.y(), k, seed);
    let scored = pool::run(folds.len(), pool::host_workers(), |f| {
        fit_fold(make_model(), data, &folds[f])
    });
    let mut pooled = ConfusionMatrix::default();
    for confusion in scored {
        pooled.merge(&confusion?);
    }
    Ok(CrossValResult {
        confusion: pooled,
        folds: folds.len(),
    })
}

/// One dataset's model build: an unfitted forest's fit on all of `data`,
/// with an out-of-bag test phase if [`with_out_of_bag`](Self::with_out_of_bag)
/// switched one on.
#[derive(Debug, Clone)]
pub struct ForestBuild<'a> {
    forest: RandomForest,
    data: &'a Dataset,
    out_of_bag: bool,
}

impl<'a> ForestBuild<'a> {
    /// `forest` (configured, unfitted) fitted on `data`, with no test phase.
    #[must_use]
    pub fn new(forest: RandomForest, data: &'a Dataset) -> Self {
        Self {
            forest,
            data,
            out_of_bag: false,
        }
    }

    /// Switches the test phase on or off: the fitted forest's out-of-bag
    /// votes (Breiman 2001, §3.1) scored against `data`'s labels. Each row
    /// is judged only by the trees whose bootstrap left it out, at the
    /// forest's own threshold, so the forest assesses itself without a
    /// second fit.
    #[must_use]
    pub fn with_out_of_bag(mut self, on: bool) -> Self {
        self.out_of_bag = on;
        self
    }
}

/// What one [`ForestBuild`] produced.
#[derive(Debug, Clone)]
pub struct BuiltForest {
    /// The forest fitted on all of the build's data.
    pub forest: RandomForest,
    /// The test phase's out-of-bag confusion over every row some tree left
    /// out — empty when every tree drew every row; `None` without a test
    /// phase.
    pub out_of_bag: Option<ConfusionMatrix>,
}

/// Fits every build's forest — with its out-of-bag test phase where one is
/// switched on — as one job per build on one pool of workers, one per
/// available hardware thread. Each forest is fitted on one thread and is a
/// function of its data and seed alone, so the results are the same as
/// fitting the forests one at a time, at any worker count.
///
/// # Errors
///
/// Returns the first training error in build order.
///
/// # Example
///
/// ```
/// use smartflux_ml::crossval::{build_forests, ForestBuild};
/// use smartflux_ml::{Classifier, Dataset, RandomForest};
///
/// let data = Dataset::new(
///     (0..40).map(|i| vec![i as f64]).collect(),
///     (0..40).map(|i| i >= 20).collect(),
/// ).unwrap();
/// let build = ForestBuild::new(RandomForest::new(10).with_seed(3), &data)
///     .with_out_of_bag(true);
/// let built = build_forests(&[build]).unwrap();
/// assert!(built[0].forest.predict(&[35.0]));
/// assert!(built[0].out_of_bag.unwrap().accuracy() > 0.9);
/// ```
pub fn build_forests(builds: &[ForestBuild<'_>]) -> Result<Vec<BuiltForest>, MlError> {
    build_forests_with_workers(builds, pool::host_workers())
}

/// [`build_forests`] on at most `workers` threads: the seam the
/// determinism oracle varies.
pub(crate) fn build_forests_with_workers(
    builds: &[ForestBuild<'_>],
    workers: usize,
) -> Result<Vec<BuiltForest>, MlError> {
    pool::run(builds.len(), workers, |b| {
        let build = &builds[b];
        let mut forest = build.forest.clone();
        let out_of_bag = if build.out_of_bag {
            let votes = forest.fit_out_of_bag(build.data)?;
            Some(forest.out_of_bag_confusion(&votes, build.data.y()))
        } else {
            forest.fit(build.data)?;
            None
        };
        Ok(BuiltForest { forest, out_of_bag })
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::out_of_bag_reference;
    use crate::tree::DecisionTree;

    #[test]
    fn folds_partition_all_instances() {
        let labels: Vec<bool> = (0..37).map(|i| i % 3 == 0).collect();
        let folds = stratified_folds(&labels, 5, 42);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..37).collect::<Vec<_>>());
    }

    #[test]
    fn folds_preserve_class_ratio() {
        let labels: Vec<bool> = (0..100).map(|i| i < 20).collect(); // 20% positive
        let folds = stratified_folds(&labels, 10, 7);
        for fold in &folds {
            let pos = fold.iter().filter(|&&i| labels[i]).count();
            assert_eq!(pos, 2, "each fold should hold 2 of the 20 positives");
        }
    }

    #[test]
    fn fold_sizes_never_spread_more_than_one() {
        // Exercise awkward (n, k, positive-count) combinations where the
        // old both-classes-start-at-fold-0 assignment piled two leftover
        // instances onto the early folds (e.g. 13 pos + 24 neg over 5
        // folds put fold 0 at 8 while fold 4 sat at 7 — or worse when
        // both remainders overlapped).
        for (n, k, modulus) in [(37, 5, 3), (23, 4, 2), (101, 10, 7), (17, 8, 5), (49, 6, 4)] {
            let labels: Vec<bool> = (0..n).map(|i| i % modulus == 0).collect();
            let folds = stratified_folds(&labels, k, 11);
            let sizes: Vec<usize> = folds.iter().map(Vec::len).collect();
            let spread = sizes.iter().max().unwrap() - sizes.iter().min().unwrap();
            assert!(spread <= 1, "n={n} k={k}: fold sizes {sizes:?}");
            // Per-class spread stays ≤1 too (stratification proper).
            let pos_sizes: Vec<usize> = folds
                .iter()
                .map(|f| f.iter().filter(|&&i| labels[i]).count())
                .collect();
            let pos_spread = pos_sizes.iter().max().unwrap() - pos_sizes.iter().min().unwrap();
            assert!(pos_spread <= 1, "n={n} k={k}: positives {pos_sizes:?}");
        }
    }

    #[test]
    fn small_minority_is_not_piled_onto_early_folds() {
        // 7 positives + 13 negatives over 4 folds: the old assignment
        // gave fold 0 both a 2nd positive AND a 4th negative (6 total vs
        // 4 in fold 3). The offset keeps every fold at 5 instances.
        let labels: Vec<bool> = (0..20).map(|i| i < 7).collect();
        let folds = stratified_folds(&labels, 4, 3);
        for fold in &folds {
            assert_eq!(fold.len(), 5, "folds {folds:?}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let labels: Vec<bool> = (0..50).map(|i| i % 2 == 0).collect();
        assert_eq!(
            stratified_folds(&labels, 5, 9),
            stratified_folds(&labels, 5, 9)
        );
    }

    #[test]
    fn cross_validation_on_separable_data() {
        let data = Dataset::new(
            (0..60).map(|i| vec![i as f64]).collect(),
            (0..60).map(|i| i >= 30).collect(),
        )
        .unwrap();
        let r = cross_validate(&data, 10, 0, DecisionTree::new).unwrap();
        assert_eq!(r.folds, 10);
        assert!(r.accuracy() > 0.9, "accuracy {}", r.accuracy());
        assert!(r.recall() > 0.85);
    }

    /// Deterministic four-feature dataset: two near-continuous columns,
    /// one with seven distinct values, an interacting label.
    fn noisy(n: usize, seed: u64) -> Dataset {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let (x, y) = (0..n)
            .map(|_| {
                let a = f64::from(rng.random_range(0..1000_u32)) / 100.0;
                let b = f64::from(rng.random_range(0..100_u32)) / 10.0;
                let c = f64::from(rng.random_range(0..7_u32));
                let d = f64::from(rng.random_range(0..1000_u32)) / 250.0;
                (vec![a, b, c, d], a + b * 0.5 > 7.5 || (c >= 4.0 && d > 2.0))
            })
            .unzip();
        Dataset::new(x, y).unwrap()
    }

    /// A build fitted alone on the calling thread: the forest by a plain
    /// `fit`, its test phase scored from the independently recomputed
    /// out-of-bag votes.
    fn build_alone(build: &ForestBuild<'_>) -> BuiltForest {
        let mut forest = build.forest.clone();
        forest.fit(build.data).unwrap();
        let out_of_bag = build.out_of_bag.then(|| {
            let votes = out_of_bag_reference(&build.forest, build.data);
            forest.out_of_bag_confusion(&votes, build.data.y())
        });
        BuiltForest { forest, out_of_bag }
    }

    #[test]
    fn pooled_build_is_bit_identical_at_every_worker_count() {
        let wide = [noisy(250, 2), noisy(250, 77)];
        // A four-row, two-label knowledge base's per-label views, one
        // label never firing.
        let x: Vec<Vec<f64>> = [0.5, 3.0, 1.5, 4.0].iter().map(|&v| vec![v]).collect();
        let tiny = [
            Dataset::new(x.clone(), vec![false, true, false, true]).unwrap(),
            Dataset::new(x, vec![false; 4]).unwrap(),
        ];
        let forest = |seed: u64| RandomForest::new(13).with_max_depth(9).with_seed(seed);
        let batch = vec![
            ForestBuild::new(forest(2), &wide[0]).with_out_of_bag(true),
            ForestBuild::new(forest(77).with_threshold(0.3), &wide[1]).with_out_of_bag(true),
            ForestBuild::new(forest(5), &tiny[0]).with_out_of_bag(true),
            ForestBuild::new(forest(6), &tiny[1]).with_out_of_bag(true),
            // A recovery refit: final forests only.
            ForestBuild::new(forest(2), &wide[0]),
        ];
        let expected: Vec<BuiltForest> = batch.iter().map(build_alone).collect();
        let pooled = |built: &[BuiltForest]| {
            let mut total = ConfusionMatrix::default();
            for confusion in built.iter().filter_map(|b| b.out_of_bag) {
                total.merge(&confusion);
            }
            total
        };
        assert_eq!(expected[3].out_of_bag.unwrap().tn, 4);
        assert!(expected[4].out_of_bag.is_none());

        let host = pool::host_workers();
        for workers in [1, 2, 3, 8, 64, host] {
            let built = build_forests_with_workers(&batch, workers).unwrap();
            assert_eq!(built.len(), expected.len());
            for (b, (got, want)) in built.iter().zip(&expected).enumerate() {
                // Arena equality is bitwise, NaN leaf thresholds included:
                // equal arenas are equal forests, node for node.
                assert_eq!(
                    got.forest.arena(),
                    want.forest.arena(),
                    "build {b}, {workers} workers"
                );
                assert_eq!(
                    got.out_of_bag, want.out_of_bag,
                    "build {b}, {workers} workers"
                );
            }
            assert_eq!(pooled(&built), pooled(&expected), "{workers} workers");
        }
        let built = build_forests(&batch).unwrap();
        assert_eq!(pooled(&built), pooled(&expected), "build_forests");
    }

    #[test]
    #[should_panic(expected = "at least two folds")]
    fn one_fold_panics() {
        let _ = stratified_folds(&[true, false], 1, 0);
    }

    #[test]
    #[should_panic(expected = "more folds than instances")]
    fn too_many_folds_panics() {
        let _ = stratified_folds(&[true, false], 3, 0);
    }
}
