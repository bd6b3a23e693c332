//! Random Forests — the paper's default learning approach.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::arena::TreeArena;
use crate::dataset::Dataset;
use crate::error::MlError;
use crate::metrics::ConfusionMatrix;
use crate::tree::{DecisionTree, Presorted};
use crate::Classifier;

/// A Random Forest classifier: bagged decision trees with per-split feature
/// subsampling, as in Breiman 2001.
///
/// The paper adopts RF as SmartFlux's default classifier because "default
/// parameterization in RF often performs well"; the two knobs the paper
/// calls out for recall/precision trading — the number of trees and the
/// maximum tree depth — are exposed here, plus a decision threshold used by
/// SmartFlux to optimise for recall (fewer missed `maxε` violations at the
/// cost of extra executions).
///
/// [`fit`](Classifier::fit) grows the trees on the calling thread. A model
/// build's many forests are fitted side by side by
/// [`build_forests`](crate::crossval::build_forests), one forest per job.
///
/// # Example
///
/// ```
/// use smartflux_ml::{Classifier, Dataset, RandomForest};
///
/// let data = Dataset::new(
///     (0..40).map(|i| vec![i as f64, (40 - i) as f64]).collect(),
///     (0..40).map(|i| i >= 20).collect(),
/// ).unwrap();
/// let mut rf = RandomForest::new(15).with_seed(42);
/// rf.fit(&data).unwrap();
/// assert!(rf.predict(&[35.0, 5.0]));
/// assert!(!rf.predict(&[3.0, 37.0]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    n_trees: usize,
    max_depth: usize,
    min_samples_split: usize,
    max_features: Option<usize>,
    threshold: f64,
    seed: u64,
    /// Feature count of the data the trees were grown on; 0 before fitting.
    n_features: usize,
    trees: Vec<DecisionTree>,
    /// Flattened prediction arena, rebuilt from `trees` at every fit;
    /// empty exactly when `trees` is empty.
    arena: TreeArena,
}

impl Default for RandomForest {
    fn default() -> Self {
        Self::new(50)
    }
}

impl RandomForest {
    /// A forest of `n_trees` trees with default depth (16) and `√d` feature
    /// subsampling.
    ///
    /// # Panics
    ///
    /// Panics if `n_trees` is zero.
    #[must_use]
    pub fn new(n_trees: usize) -> Self {
        assert!(n_trees > 0, "a forest needs at least one tree");
        Self {
            n_trees,
            max_depth: 16,
            min_samples_split: 2,
            max_features: None, // √d chosen at fit time
            threshold: 0.5,
            seed: 0,
            n_features: 0,
            trees: Vec::new(),
            arena: TreeArena::new(),
        }
    }

    /// Sets the maximum depth of every tree.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    #[must_use]
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "max depth must be positive");
        self.max_depth = depth;
        self
    }

    /// Sets the number of features considered per split (default `√d`).
    #[must_use]
    pub fn with_max_features(mut self, k: usize) -> Self {
        self.max_features = Some(k.max(1));
        self
    }

    /// Sets the minimum number of instances required to split a node.
    #[must_use]
    pub fn with_min_samples_split(mut self, min: usize) -> Self {
        self.min_samples_split = min.max(2);
        self
    }

    /// Sets the probability threshold above which [`predict`] returns
    /// positive.
    ///
    /// Thresholds below 0.5 bias the model toward recall — SmartFlux uses
    /// this for workloads like LRB where missing a `maxε` violation is
    /// costlier than a wasted execution.
    ///
    /// [`predict`]: Classifier::predict
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is outside `(0, 1)`.
    #[must_use]
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold < 1.0,
            "threshold must be in (0, 1)"
        );
        self.threshold = threshold;
        self
    }

    /// Seeds bootstrap sampling and feature subsampling.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of trees in the (fitted or configured) ensemble.
    #[must_use]
    pub fn n_trees(&self) -> usize {
        self.n_trees
    }

    /// The configured decision threshold.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Number of features the forest was fitted on (0 before fitting).
    #[must_use]
    pub(crate) fn n_features(&self) -> usize {
        self.n_features
    }

    /// The flattened prediction arena (empty before fitting).
    #[must_use]
    pub fn arena(&self) -> &TreeArena {
        &self.arena
    }

    /// Tree `t` of the ensemble, unfitted: the forest's limits, `√d`
    /// features per split unless set, and a seed derived from the index.
    fn tree_config(&self, n_features: usize, t: usize) -> DecisionTree {
        let k = self
            .max_features
            .unwrap_or_else(|| (n_features as f64).sqrt().ceil() as usize)
            .max(1);
        DecisionTree::new()
            .with_max_depth(self.max_depth)
            .with_min_samples_split(self.min_samples_split)
            .with_max_features(k)
            .with_seed(self.seed.wrapping_add(t as u64).wrapping_mul(0x9E37_79B9))
    }

    /// Grows every tree on the calling thread, in ensemble order, and hands
    /// each one with its bootstrap's per-row draw counts to `on_tree`
    /// before the next is drawn. Tree `t`'s bootstrap sample is draws
    /// [t·n, (t+1)·n) of the forest's seeded RNG and its
    /// feature-subsampling seed derives from `t`, so the forest is a
    /// function of its data and seed alone, wherever it is fitted, and
    /// whatever `on_tree` does.
    fn grow(
        &mut self,
        data: &Dataset,
        mut on_tree: impl FnMut(&DecisionTree, &[u32]),
    ) -> Result<(), MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset); // `Dataset::subset(&[])`
        }
        let view = Presorted::new(data)?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        // A sample is kept as how often each row was drawn — the grower
        // walks the shared sort order with those counts as weights, so no
        // tree copies or sorts a row. Growing a tree draws nothing from
        // the forest RNG, so drawing each sample just before its tree
        // gives the draws the order they had when all were drawn first.
        let n = data.len();
        let mut sample = vec![0_u32; n];
        let mut trees = Vec::with_capacity(self.n_trees);
        for t in 0..self.n_trees {
            sample.fill(0);
            for _ in 0..n {
                sample[rng.random_range(0..n)] += 1;
            }
            let mut tree = self.tree_config(data.n_features(), t);
            tree.fit_presorted(&view, data.y(), &sample);
            on_tree(&tree, &sample);
            trees.push(tree);
        }
        self.trees = trees;
        self.n_features = data.n_features();
        self.rebuild_arena();
        Ok(())
    }

    /// [`fit`](Classifier::fit), collecting each row's out-of-bag votes on
    /// the way (Breiman 2001, §3.1): after each tree is grown, its leaf
    /// probability for every row its bootstrap did not draw is added to
    /// that row's `(sum, count)`. The forest is the one `fit` grows, bit
    /// for bit — the votes draw nothing from the forest RNG.
    pub(crate) fn fit_out_of_bag(&mut self, data: &Dataset) -> Result<Vec<(f64, u32)>, MlError> {
        let mut votes = vec![(0.0, 0_u32); data.len()];
        self.grow(data, |tree, sample| {
            for (i, (&drawn, (sum, count))) in sample.iter().zip(&mut votes).enumerate() {
                if drawn == 0 {
                    *sum += tree.predict_proba(data.features(i));
                    *count += 1;
                }
            }
        })?;
        Ok(votes)
    }

    /// Scores out-of-bag `votes` against `labels`: a row is predicted
    /// positive when its vote fraction `sum / count` reaches the forest's
    /// threshold. A row no tree left out scores nothing.
    pub(crate) fn out_of_bag_confusion(
        &self,
        votes: &[(f64, u32)],
        labels: &[bool],
    ) -> ConfusionMatrix {
        let mut confusion = ConfusionMatrix::default();
        for (&(sum, count), &actual) in votes.iter().zip(labels) {
            if count > 0 {
                let predicted = sum / f64::from(count) >= self.threshold;
                confusion.merge(&ConfusionMatrix::from_pairs(&[actual], &[predicted]));
            }
        }
        confusion
    }

    /// Rebuilds the flat arena from the pointer trees. Every path that
    /// installs trees calls this, so the two representations can never
    /// diverge.
    fn rebuild_arena(&mut self) {
        self.arena.clear();
        for tree in &self.trees {
            tree.flatten_into(&mut self.arena);
        }
    }

    /// The reference prediction path: per-tree `Box`-node pointer walks,
    /// averaged in ensemble order. Kept as the independent oracle the
    /// flat arena is parity-tested against; [`predict_proba`] serves the
    /// same values from the flat arena.
    ///
    /// Returns the 0.5 prior before fitting, like [`predict_proba`].
    ///
    /// [`predict_proba`]: Classifier::predict_proba
    #[cfg(test)]
    fn predict_proba_reference(&self, features: &[f64]) -> f64 {
        if self.trees.is_empty() {
            return 0.5;
        }
        let sum: f64 = self.trees.iter().map(|t| t.predict_proba(features)).sum();
        sum / self.trees.len() as f64
    }

    /// Ensemble probabilities for a batch of samples in one
    /// cache-friendly pass (trees outer, samples inner), bit-identical
    /// to calling [`predict_proba`] per sample.
    ///
    /// Unlike the trait path this is strict about training state: an
    /// unfitted forest is rejected instead of answering with the prior.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::NotFitted`] before a successful fit.
    ///
    /// [`predict_proba`]: Classifier::predict_proba
    pub fn predict_batch<S: AsRef<[f64]>>(&self, samples: &[S]) -> Result<Vec<f64>, MlError> {
        if self.arena.is_empty() {
            return Err(MlError::NotFitted);
        }
        Ok(self.arena.predict_batch(samples))
    }
}

impl Classifier for RandomForest {
    /// Grows every tree on the calling thread, in ensemble order; the
    /// forest is a function of its data and seed alone, wherever it is
    /// fitted.
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        self.grow(data, |_, _| {})
    }

    fn is_fitted(&self) -> bool {
        !self.trees.is_empty()
    }

    /// Flat-arena traversal, parity-tested against the `cfg(test)`
    /// pointer walk (`predict_proba_reference`).
    fn predict_proba(&self, features: &[f64]) -> f64 {
        if self.arena.is_empty() {
            return 0.5; // the trait-level unfitted prior
        }
        self.arena.predict_proba(features)
    }

    fn predict(&self, features: &[f64]) -> bool {
        self.predict_proba(features) >= self.threshold
    }
}

/// The out-of-bag votes of `config` fitted on `data`, computed apart from
/// any fit: each tree's bootstrap re-drawn from the forest seed as a list
/// of row indices, the tree grown on that materialised sample by the
/// reference grower, and every row the sample never names scored by that
/// tree alone. Shared by the forest and the pool oracles.
#[cfg(test)]
pub(crate) fn out_of_bag_reference(config: &RandomForest, data: &Dataset) -> Vec<(f64, u32)> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut votes = vec![(0.0, 0); data.len()];
    for t in 0..config.n_trees {
        let sample: Vec<usize> = (0..data.len())
            .map(|_| rng.random_range(0..data.len()))
            .collect();
        let mut tree = config.tree_config(data.n_features(), t);
        tree.fit_reference(&data.subset(&sample));
        for (i, (sum, count)) in votes.iter_mut().enumerate() {
            if !sample.contains(&i) {
                *sum += tree.predict_proba(data.features(i));
                *count += 1;
            }
        }
    }
    votes
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::crossval::{build_forests_with_workers, ForestBuild};
    use crate::tree::tied_dataset;

    /// `fit` as it was before the presorted grower: every tree's
    /// bootstrap materialised with `Dataset::subset` and grown by the
    /// per-node-sort reference, on one thread.
    fn fit_reference(forest: &mut RandomForest, data: &Dataset) {
        let mut rng = StdRng::seed_from_u64(forest.seed);
        let samples: Vec<Vec<usize>> = (0..forest.n_trees)
            .map(|_| {
                (0..data.len())
                    .map(|_| rng.random_range(0..data.len()))
                    .collect()
            })
            .collect();
        forest.n_features = data.n_features();
        forest.trees = samples
            .iter()
            .enumerate()
            .map(|(t, sample)| {
                let mut tree = forest.tree_config(data.n_features(), t);
                tree.fit_reference(&data.subset(sample));
                tree
            })
            .collect();
        forest.rebuild_arena();
    }

    proptest! {
        /// The forest half of the differential oracle: alone and in a
        /// pooled batch at 1, 2 and 4 workers, the presorted fit flattens
        /// to the arena of the reference fit, node for node.
        #[test]
        fn presorted_forest_arena_matches_reference(
            seed in any::<u64>(),
            (n_rows, n_features) in (1usize..70, 1usize..=6),
            (n_trees, max_depth, min_samples_split) in (1usize..=9, 1usize..=12, 2usize..=6),
            max_features in proptest::option::of(1usize..=6),
        ) {
            let data = tied_dataset(&mut StdRng::seed_from_u64(seed), n_rows, n_features);
            let mut config = RandomForest::new(n_trees)
                .with_max_depth(max_depth)
                .with_min_samples_split(min_samples_split)
                .with_seed(seed);
            config.max_features = max_features;

            let mut reference = config.clone();
            fit_reference(&mut reference, &data);
            let expected = reference.arena();
            let batch = vec![ForestBuild::new(config.clone(), &data); 3];
            for workers in [1, 2, 4] {
                for built in build_forests_with_workers(&batch, workers).unwrap() {
                    prop_assert_eq!(built.forest.arena(), expected, "{} workers", workers);
                }
            }
            let mut forest = config.clone();
            forest.fit(&data).unwrap();
            prop_assert_eq!(forest.arena(), expected, "alone");
        }

        /// The out-of-bag oracle: the votes collected during the fit equal
        /// the independently recomputed reference, `==` on every `f64`
        /// sum, and collecting them leaves the forest's arena bit-identical
        /// to a plain fit's.
        #[test]
        fn out_of_bag_votes_match_reference(
            seed in any::<u64>(),
            (n_rows, n_features) in (1usize..70, 1usize..=6),
            (n_trees, max_depth, min_samples_split) in (1usize..=9, 1usize..=12, 2usize..=6),
            max_features in proptest::option::of(1usize..=6),
        ) {
            let data = tied_dataset(&mut StdRng::seed_from_u64(seed), n_rows, n_features);
            let mut config = RandomForest::new(n_trees)
                .with_max_depth(max_depth)
                .with_min_samples_split(min_samples_split)
                .with_seed(seed);
            config.max_features = max_features;

            let mut plain = config.clone();
            plain.fit(&data).unwrap();
            let mut voted = config.clone();
            let votes = voted.fit_out_of_bag(&data).unwrap();
            prop_assert_eq!(voted.arena(), plain.arena());
            prop_assert_eq!(votes, out_of_bag_reference(&config, &data));
        }
    }

    #[test]
    fn out_of_bag_confusion_scores_held_out_rows_at_the_threshold() {
        let forest = RandomForest::new(3).with_threshold(0.3);
        // Vote fractions 0.3 (at the threshold), 0.25, 1.0, and a row no
        // tree left out.
        let votes = [(0.6, 2), (0.5, 2), (3.0, 3), (0.0, 0)];
        let confusion = forest.out_of_bag_confusion(&votes, &[false, true, true, true]);
        assert_eq!(
            confusion,
            ConfusionMatrix {
                tp: 1,
                fp: 1,
                tn: 0,
                fn_: 1
            }
        );
    }

    fn banded() -> Dataset {
        // Positive iff x in [10, 20).
        Dataset::new(
            (0..30).map(|i| vec![i as f64]).collect(),
            (0..30).map(|i| (10..20).contains(&i)).collect(),
        )
        .unwrap()
    }

    #[test]
    fn learns_a_band() {
        let mut rf = RandomForest::new(30).with_seed(1);
        rf.fit(&banded()).unwrap();
        assert!(rf.predict(&[15.0]));
        assert!(!rf.predict(&[25.0]));
        assert!(!rf.predict(&[5.0]));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = RandomForest::new(10).with_seed(99);
        let mut b = RandomForest::new(10).with_seed(99);
        a.fit(&banded()).unwrap();
        b.fit(&banded()).unwrap();
        for x in 0..30 {
            assert_eq!(a.predict_proba(&[x as f64]), b.predict_proba(&[x as f64]));
        }
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let mut a = RandomForest::new(5).with_seed(1);
        let mut b = RandomForest::new(5).with_seed(2);
        a.fit(&banded()).unwrap();
        b.fit(&banded()).unwrap();
        let differs = (0..300)
            .map(|x| x as f64 / 10.0)
            .any(|x| a.predict_proba(&[x]) != b.predict_proba(&[x]));
        assert!(differs);
    }

    #[test]
    fn lower_threshold_is_more_recall_hungry() {
        let mut rf = RandomForest::new(20).with_seed(5);
        rf.fit(&banded()).unwrap();
        let p = rf.predict_proba(&[9.6]); // boundary region
        let strict = p >= 0.5;
        let recall_biased = p >= 0.2;
        // The recall-biased cut never predicts negative where strict said positive.
        assert!(recall_biased || !strict);
    }

    #[test]
    fn unfitted_returns_prior() {
        let rf = RandomForest::new(3);
        assert_eq!(rf.predict_proba(&[1.0]), 0.5);
    }

    #[test]
    fn unfitted_is_rejected_on_checked_paths() {
        let rf = RandomForest::new(3).with_threshold(0.2);
        assert!(!rf.is_fitted());
        // The trait-level prior (0.5) would cross the recall-tuned
        // threshold and read as a confident "execute"…
        assert!(rf.predict(&[1.0]));
        // …which is exactly why the checked paths refuse to answer.
        assert_eq!(rf.try_predict_proba(&[1.0]), Err(MlError::NotFitted));
        assert_eq!(rf.try_predict(&[1.0]), Err(MlError::NotFitted));
        assert_eq!(rf.predict_batch(&[vec![1.0]]), Err(MlError::NotFitted));
    }

    #[test]
    fn flat_path_matches_reference_walk() {
        let mut rf = RandomForest::new(25).with_seed(7);
        rf.fit(&banded()).unwrap();
        assert!(rf.is_fitted());
        assert_eq!(rf.arena().n_trees(), 25);
        for x in -10..40 {
            let probe = [f64::from(x)];
            assert_eq!(
                rf.predict_proba(&probe),
                rf.predict_proba_reference(&probe),
                "x={x}"
            );
        }
    }

    #[test]
    fn batch_matches_per_sample_predictions() {
        let mut rf = RandomForest::new(12).with_seed(8);
        rf.fit(&banded()).unwrap();
        let samples: Vec<Vec<f64>> = (-10..40).map(|x| vec![f64::from(x)]).collect();
        let batched = rf.predict_batch(&samples).unwrap();
        for (sample, p) in samples.iter().zip(&batched) {
            assert_eq!(rf.predict_proba(sample), *p);
        }
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_panics() {
        let _ = RandomForest::new(0);
    }

    #[test]
    fn probability_within_unit_interval() {
        let mut rf = RandomForest::new(17).with_seed(3);
        rf.fit(&banded()).unwrap();
        for x in -50..80 {
            let p = rf.predict_proba(&[x as f64]);
            assert!((0.0..=1.0).contains(&p), "p={p} out of range");
        }
    }

    /// Seeded parity suite for the flattened forest kernel.
    ///
    /// The flat struct-of-arrays arena and the batched predict path are
    /// pure performance work: both must be bit-identical to the original
    /// pointer-walking implementation (`crossval`'s tests pin a pooled
    /// model build at every worker count). These tests pin that
    /// equivalence with `==` on `f64` (never a tolerance) across a grid of
    /// seeds, ensemble sizes, and depths. Forests are compared by their
    /// arenas, which `==` bit for bit.
    mod parity {
        use crate::{Classifier, Dataset, RandomForest};

        /// Deterministic multi-feature dataset with interacting signal, noise,
        /// and duplicated values (so trees exercise tie handling).
        fn dataset(n: usize, seed: u64) -> Dataset {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let mut next = move || {
                // splitmix64
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let mut x = Vec::with_capacity(n);
            let mut y = Vec::with_capacity(n);
            for _ in 0..n {
                let a = (next() % 1000) as f64 / 100.0;
                let b = (next() % 100) as f64 / 10.0;
                let c = (next() % 7) as f64; // heavy duplication
                let d = (next() % 1000) as f64 / 250.0;
                let label = a + b * 0.5 > 7.5 || (c >= 4.0 && d > 2.0);
                x.push(vec![a, b, c, d]);
                y.push(label);
            }
            Dataset::new(x, y).expect("synthetic dataset is well-formed")
        }

        fn probes(n: usize) -> Vec<Vec<f64>> {
            (0..n)
                .map(|i| {
                    let t = i as f64;
                    vec![
                        (t * 0.37) % 10.0,
                        (t * 0.11) % 10.0,
                        (t % 7.0),
                        (t * 0.53) % 4.0,
                    ]
                })
                .collect()
        }

        #[test]
        fn flat_arena_is_bit_identical_to_pointer_walk() {
            for seed in [0_u64, 1, 42, 0xDEAD_BEEF] {
                for (n_trees, depth) in [(1, 1), (5, 4), (20, 8), (50, 16), (100, 16)] {
                    let mut rf = RandomForest::new(n_trees)
                        .with_max_depth(depth)
                        .with_seed(seed);
                    rf.fit(&dataset(300, seed)).expect("fit");
                    for probe in probes(200) {
                        let flat = rf.predict_proba(&probe);
                        let reference = rf.predict_proba_reference(&probe);
                        assert!(
                            flat == reference,
                            "seed={seed} trees={n_trees} depth={depth}: flat {flat} != ref {reference}"
                        );
                    }
                }
            }
        }

        #[test]
        fn batched_predictions_are_bit_identical_to_per_sample() {
            for seed in [3_u64, 99] {
                let mut rf = RandomForest::new(30).with_max_depth(12).with_seed(seed);
                rf.fit(&dataset(400, seed)).expect("fit");
                let batch = probes(500);
                let batched = rf.predict_batch(&batch).expect("fitted");
                assert_eq!(batched.len(), batch.len());
                for (probe, p) in batch.iter().zip(&batched) {
                    assert!(rf.predict_proba(probe) == *p, "seed={seed}");
                    assert!(rf.predict_proba_reference(probe) == *p, "seed={seed}");
                }
            }
        }

        /// FNV-1a (64-bit) of a byte string.
        fn fnv1a(bytes: &[u8]) -> u64 {
            bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            })
        }

        /// The models are the same models: the arena of one fixed forest, printed
        /// with `Debug` (an f64 prints as the shortest string that reads back to
        /// the same bits) and hashed. The pin was taken at the commit before the
        /// forest codec was deleted, where the same forest's codec bytes still
        /// matched their own pin from before the presorted grower. Induction is
        /// deterministic (seeded RNG, IEEE arithmetic, no hash-map order), so any
        /// change to this value is a change to what every session trains and
        /// refits at recovery — never "harmless".
        #[test]
        fn induction_golden_is_pinned() {
            let full = dataset(300, 19);
            // 300 × 2: one near-continuous column, one with seven distinct values.
            let x: Vec<Vec<f64>> = full.x().iter().map(|r| vec![r[0], r[2]]).collect();
            let data = Dataset::new(x, full.y().to_vec()).expect("well-formed");
            let mut rf = RandomForest::new(20).with_max_depth(10).with_seed(19);
            rf.fit(&data).expect("fit");
            let printed = format!("{:?}", rf.arena());
            assert_eq!(
                (
                    rf.arena().n_nodes(),
                    printed.len(),
                    fnv1a(printed.as_bytes())
                ),
                (1_650, 33_943, 0x6E8F_3758_2780_2D8E_u64),
                "forest induction no longer produces the pinned model"
            );
        }
    }
}
