//! Stratified k-fold cross-validation (the paper's 10-fold test phase).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::metrics::ConfusionMatrix;
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

/// Runs k-fold cross-validation of `make_model` over `data`.
///
/// `make_model` is called once per fold to obtain a fresh classifier, which
/// is trained on the other `k−1` folds and evaluated on the held-out fold.
/// This is how SmartFlux's test phase "assesses the quality of the trained
/// model" before entering the application phase.
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
    F: Fn() -> C,
{
    let folds = stratified_folds(data.y(), k, seed);
    let mut pooled = ConfusionMatrix::default();
    for held_out in &folds {
        let mut held = vec![false; data.len()];
        for &i in held_out {
            held[i] = true;
        }
        let train_idx: Vec<usize> = (0..data.len()).filter(|&i| !held[i]).collect();
        if train_idx.is_empty() {
            continue;
        }
        let train = data.subset(&train_idx);
        let mut model = make_model();
        model.fit(&train)?;
        let actual: Vec<bool> = held_out.iter().map(|&i| data.label(i)).collect();
        let predicted: Vec<bool> = held_out
            .iter()
            .map(|&i| model.predict(data.features(i)))
            .collect();
        pooled.merge(&ConfusionMatrix::from_pairs(&actual, &predicted));
    }
    Ok(CrossValResult {
        confusion: pooled,
        folds: folds.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
