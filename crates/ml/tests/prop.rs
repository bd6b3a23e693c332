//! Property-based tests for the ML library.

use proptest::prelude::*;

use smartflux_ml::crossval::stratified_folds;
use smartflux_ml::metrics::{accuracy, precision, recall, roc_auc, ConfusionMatrix};
use smartflux_ml::{Classifier, Dataset, DecisionTree, RandomForest};

fn labels() -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(any::<bool>(), 4..60)
}

proptest! {
    /// All ratio metrics stay within [0, 1].
    #[test]
    fn metrics_are_ratios(actual in labels(), flips in prop::collection::vec(any::<bool>(), 4..60)) {
        let n = actual.len().min(flips.len());
        let actual = &actual[..n];
        let predicted: Vec<bool> = actual.iter().zip(&flips[..n]).map(|(&a, &f)| a ^ f).collect();
        for v in [
            accuracy(actual, &predicted),
            precision(actual, &predicted),
            recall(actual, &predicted),
        ] {
            prop_assert!((0.0..=1.0).contains(&v), "metric {v} out of range");
        }
    }

    /// Confusion-matrix counts always total the number of instances.
    #[test]
    fn confusion_counts_total(actual in labels(), flips in prop::collection::vec(any::<bool>(), 4..60)) {
        let n = actual.len().min(flips.len());
        let actual = &actual[..n];
        let predicted: Vec<bool> = actual.iter().zip(&flips[..n]).map(|(&a, &f)| a ^ f).collect();
        let cm = ConfusionMatrix::from_pairs(actual, &predicted);
        prop_assert_eq!(cm.total(), n);
    }

    /// Negating scores flips the AUC around 0.5.
    #[test]
    fn auc_negation_symmetry(
        actual in labels(),
        scores in prop::collection::vec(-100.0f64..100.0, 4..60),
    ) {
        let n = actual.len().min(scores.len());
        let actual = &actual[..n];
        let scores = &scores[..n];
        let neg: Vec<f64> = scores.iter().map(|s| -s).collect();
        let a = roc_auc(actual, scores);
        let b = roc_auc(actual, &neg);
        prop_assert!((a + b - 1.0).abs() < 1e-9 || (a == 0.5 && b == 0.5));
    }

    /// AUC is invariant under any strictly monotone transform of scores.
    #[test]
    fn auc_monotone_invariance(
        actual in labels(),
        scores in prop::collection::vec(-10.0f64..10.0, 4..60),
    ) {
        let n = actual.len().min(scores.len());
        let actual = &actual[..n];
        let scores = &scores[..n];
        let transformed: Vec<f64> = scores.iter().map(|s| s.exp()).collect();
        prop_assert!((roc_auc(actual, scores) - roc_auc(actual, &transformed)).abs() < 1e-9);
    }

    /// Stratified folds partition the instances exactly once.
    #[test]
    fn folds_partition(labels in prop::collection::vec(any::<bool>(), 10..80), k in 2usize..6) {
        let folds = stratified_folds(&labels, k, 7);
        let mut seen: Vec<usize> = folds.iter().flatten().copied().collect();
        seen.sort_unstable();
        let expected: Vec<usize> = (0..labels.len()).collect();
        prop_assert_eq!(seen, expected);
    }

    /// Tree and forest probabilities always stay within [0, 1] and their
    /// hard predictions agree with thresholding.
    #[test]
    fn classifier_probability_contract(
        xs in prop::collection::vec(-100.0f64..100.0, 8..40),
        threshold in -50.0f64..50.0,
    ) {
        let y: Vec<bool> = xs.iter().map(|&x| x > threshold).collect();
        // Skip degenerate single-class datasets — they are legal but make
        // the prediction check vacuous.
        let data = Dataset::new(xs.iter().map(|&x| vec![x]).collect(), y).unwrap();

        let mut tree = DecisionTree::new();
        tree.fit(&data).unwrap();
        let mut forest = RandomForest::new(7).with_seed(1);
        forest.fit(&data).unwrap();

        for probe in [-150.0, -1.0, 0.0, 1.0, 150.0, threshold] {
            let pt = tree.predict_proba(&[probe]);
            let pf = forest.predict_proba(&[probe]);
            prop_assert!((0.0..=1.0).contains(&pt));
            prop_assert!((0.0..=1.0).contains(&pf));
            prop_assert_eq!(tree.predict(&[probe]), pt >= 0.5);
        }
    }

    /// A forest trained on a separable threshold classifies far-away points
    /// correctly.
    #[test]
    fn forest_learns_clear_margins(threshold in -20.0f64..20.0) {
        let xs: Vec<f64> = (-40..40).map(f64::from).collect();
        let y: Vec<bool> = xs.iter().map(|&x| x > threshold).collect();
        let data = Dataset::new(xs.iter().map(|&x| vec![x]).collect(), y).unwrap();
        let mut forest = RandomForest::new(20).with_seed(3);
        forest.fit(&data).unwrap();
        prop_assert!(forest.predict(&[threshold + 15.0]));
        prop_assert!(!forest.predict(&[threshold - 15.0]));
    }
}
