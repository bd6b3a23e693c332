//! A single-feature forest compiled into the step function it computes.
//!
//! A forest over one feature `x` sends `x` left at a split exactly when
//! `x <= t`, so its vote is a piecewise-constant function of `x` whose
//! pieces break only at the forest's split thresholds. With the distinct
//! thresholds sorted into `cuts`, piece `k` is `(cuts[k-1], cuts[k]]` and
//! the last piece holds every `x` above all cuts, `+∞` and NaN.
//!
//! Every `x` in piece `k` takes the branch `cuts[k]` takes at every split:
//! a threshold `t >= cuts[k]` sends both left, and a threshold
//! `t < cuts[k]` is at most `cuts[k-1] < x`, so it sends both right. The
//! piece's vote is therefore the forest's own vote at `cuts[k]`, and the
//! last piece's is its vote at NaN, which fails every `x <= t` and goes
//! right everywhere, as any `x` above every cut does. A lookup returns the
//! f64 the forest's walk returns, bit for bit.
//!
//! The votes are not read by querying the forest at each cut, a descent
//! per cut and tree: one walk per tree hands each leaf's probability to the
//! pieces that reach it, in ensemble order (`DecisionTree::add_piece_votes`),
//! and each piece's sum is then divided by the tree count, as the forest's
//! own average is.

use crate::error::MlError;
use crate::forest::RandomForest;
use crate::Classifier;

/// A fitted single-feature [`RandomForest`] as a sorted cut table: one
/// vote per piece of the feature axis, and the forest's decision
/// threshold.
///
/// [`vote`](Self::vote) is a binary search where the forest walks every
/// tree, and it answers the forest's
/// [`predict_proba`](Classifier::predict_proba) bit for bit.
///
/// # Example
///
/// ```
/// use smartflux_ml::{Classifier, Dataset, RandomForest, StepRule};
///
/// let data = Dataset::new(
///     (0..40).map(|i| vec![f64::from(i)]).collect(),
///     (0..40).map(|i| i >= 20).collect(),
/// ).unwrap();
/// let mut rf = RandomForest::new(10).with_seed(3);
/// rf.fit(&data).unwrap();
/// let rule = StepRule::compile(&rf).unwrap();
/// assert_eq!(rule.votes().len(), rule.cuts().len() + 1);
/// for x in [-1.0, 19.5, 20.0, 35.0, f64::NAN] {
///     assert_eq!(rule.vote(x).to_bits(), rf.predict_proba(&[x]).to_bits());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct StepRule {
    /// The forest's distinct split thresholds, ascending.
    cuts: Vec<f64>,
    /// The forest's vote on each piece; one more than `cuts`.
    votes: Vec<f64>,
    /// The forest's decision threshold.
    threshold: f64,
}

/// Bitwise f64 slice equality.
fn f64_bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Bitwise equality, as the votes are compared with the forest's.
impl PartialEq for StepRule {
    fn eq(&self, other: &Self) -> bool {
        f64_bits_eq(&self.cuts, &other.cuts)
            && f64_bits_eq(&self.votes, &other.votes)
            && self.threshold.to_bits() == other.threshold.to_bits()
    }
}

impl StepRule {
    /// Compiles `forest`: its split thresholds, deduplicated and sorted,
    /// and its own vote on each piece. A forest with no split compiles to
    /// one piece.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::NotFitted`] for an unfitted forest and
    /// [`MlError::InvalidParameter`] for one fitted on more than one
    /// feature, which is not a function of one number.
    pub fn compile(forest: &RandomForest) -> Result<Self, MlError> {
        if !forest.is_fitted() {
            return Err(MlError::NotFitted);
        }
        if forest.n_features() != 1 {
            return Err(MlError::InvalidParameter(format!(
                "a step rule needs a single-feature forest, not one of {} features",
                forest.n_features()
            )));
        }
        // Thresholds are midpoints of finite feature values, never NaN.
        let mut cuts = Vec::new();
        for tree in forest.trees() {
            tree.split_thresholds(&mut cuts);
        }
        cuts.sort_by(f64::total_cmp);
        // `-0.0` and `0.0` route alike; the first stands for both.
        cuts.dedup_by(|a, b| a == b);
        let mut votes = vec![0.0_f64; cuts.len() + 1];
        for tree in forest.trees() {
            tree.add_piece_votes(&cuts, &mut votes);
        }
        let n = forest.trees().len() as f64;
        for vote in &mut votes {
            *vote /= n;
        }
        Ok(Self {
            cuts,
            votes,
            threshold: forest.threshold(),
        })
    }

    /// The piece `x` falls in: the first cut `x` goes left at, or
    /// `cuts().len()` when `x` is above every cut or NaN. `x` goes right at
    /// `c` exactly when `x <= c` fails: above `c`, or NaN.
    #[must_use]
    pub fn piece(&self, x: f64) -> usize {
        self.cuts.partition_point(|&c| x > c || x.is_nan())
    }

    /// The forest's vote at `x`: the positive-class probability its walk
    /// returns, bit for bit.
    #[must_use]
    pub fn vote(&self, x: f64) -> f64 {
        self.votes[self.piece(x)]
    }

    /// The distinct split thresholds, ascending: piece `k` ends at
    /// `cuts()[k]`, inclusive.
    #[must_use]
    pub fn cuts(&self) -> &[f64] {
        &self.cuts
    }

    /// The vote on each piece, one more than [`cuts`](Self::cuts).
    #[must_use]
    pub fn votes(&self) -> &[f64] {
        &self.votes
    }

    /// The forest's decision threshold: it runs the step where the vote
    /// reaches it.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::tree::tied_dataset;
    use crate::Dataset;

    /// A single-feature dataset of `n_rows` drawn from a pool of
    /// `distinct` values on a wide, signed range — zeros of both signs and
    /// subnormals among them — with labels that follow the value only
    /// loosely, so trees split often and unevenly.
    fn spread_dataset(rng: &mut StdRng, n_rows: usize, distinct: usize) -> Dataset {
        let pool: Vec<f64> = (0..distinct)
            .map(|_| match rng.random_range(0..8) {
                0 => 0.0,
                1 => -0.0,
                2 => f64::from_bits(rng.random_range(1..1_000_u64)),
                3 => -f64::from_bits(rng.random_range(1..1_000_u64)),
                _ => f64::from(rng.random_range(-400..400_i32)) / 8.0,
            })
            .collect();
        let x: Vec<Vec<f64>> = (0..n_rows)
            .map(|_| vec![pool[rng.random_range(0..distinct)]])
            .collect();
        let y = x
            .iter()
            .map(|r| (r[0] > 3.0) != rng.random_bool(0.2))
            .collect();
        Dataset::new(x, y).unwrap()
    }

    /// Every query point the oracle checks: each cut and its two float
    /// neighbours, the zeros, infinities, NaN and subnormals, and random ι.
    fn query_points(rule: &StepRule, rng: &mut StdRng) -> Vec<f64> {
        let mut points = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE / 2.0,
            -f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
        ];
        for &c in rule.cuts() {
            points.extend([c, c.next_up(), c.next_down()]);
        }
        points.extend((0..64).map(|_| rng.random_range(-60.0..60.0)));
        points
    }

    /// Compiles `forest` and checks its rule against the forest's walk at
    /// every query point, `to_bits` on each vote and `==` on each decision.
    fn assert_rule_is_forest(forest: &RandomForest, rng: &mut StdRng) {
        let rule = StepRule::compile(forest).unwrap();
        assert_eq!(rule.votes().len(), rule.cuts().len() + 1);
        assert!(rule.cuts().windows(2).all(|w| w[0] < w[1]));
        for x in query_points(&rule, rng) {
            let walked = forest.predict_proba(&[x]);
            assert_eq!(rule.vote(x).to_bits(), walked.to_bits(), "x = {x:e}");
            let decided = rule.vote(x) >= rule.threshold();
            assert_eq!(decided, forest.predict(&[x]), "x = {x:e}");
        }
    }

    proptest! {
        /// The rule ≡ forest oracle: on random tie-heavy single-feature
        /// datasets, seeds and forest sizes up to 100 trees, the rule's
        /// vote at every cut, both its neighbours, ±0, ±∞, NaN,
        /// subnormals and random ι is the forest walk's, bit for bit.
        #[test]
        fn step_rule_votes_as_the_forest(
            seed in any::<u64>(),
            n_rows in 1usize..120,
            distinct in 1usize..40,
            (n_trees, max_depth) in (1usize..=100, 1usize..=14),
            threshold in 0.05f64..0.95,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            for data in [
                tied_dataset(&mut rng, n_rows, 1),
                spread_dataset(&mut rng, n_rows, distinct),
            ] {
                let mut forest = RandomForest::new(n_trees)
                    .with_max_depth(max_depth)
                    .with_threshold(threshold)
                    .with_seed(seed);
                forest.fit(&data).unwrap();
                assert_rule_is_forest(&forest, &mut rng);
            }
        }
    }

    #[test]
    fn step_rule_of_a_forest_without_a_split_is_one_piece() {
        let data = Dataset::new(vec![vec![1.0], vec![2.0], vec![3.0]], vec![true; 3]).unwrap();
        let mut forest = RandomForest::new(7).with_seed(5);
        forest.fit(&data).unwrap();
        let rule = StepRule::compile(&forest).unwrap();
        assert!(rule.cuts().is_empty());
        assert_eq!(rule.votes(), &[1.0]);
        assert_eq!(rule.piece(f64::NEG_INFINITY), 0);
        assert_eq!(rule.piece(f64::NAN), 0);
        assert_eq!(rule.vote(-5.0), 1.0);
    }

    #[test]
    fn step_rule_refuses_unfitted_and_multi_feature_forests() {
        assert!(matches!(
            StepRule::compile(&RandomForest::new(3)),
            Err(MlError::NotFitted)
        ));
        let data = Dataset::new(
            (0..30)
                .map(|i| vec![f64::from(i), f64::from(30 - i)])
                .collect(),
            (0..30).map(|i| i % 3 == 0).collect(),
        )
        .unwrap();
        let mut forest = RandomForest::new(5).with_seed(2);
        forest.fit(&data).unwrap();
        assert!(matches!(
            StepRule::compile(&forest),
            Err(MlError::InvalidParameter(_))
        ));
    }

    #[test]
    fn step_rule_pieces_end_at_their_cut_inclusive() {
        let data = Dataset::new(
            (0..20).map(|i| vec![f64::from(i)]).collect(),
            (0..20).map(|i| i >= 10).collect(),
        )
        .unwrap();
        let mut forest = RandomForest::new(1).with_seed(0);
        forest.fit(&data).unwrap();
        let rule = StepRule::compile(&forest).unwrap();
        for (k, &c) in rule.cuts().iter().enumerate() {
            assert_eq!(rule.piece(c), k);
            assert_eq!(rule.piece(c.next_up()), k + 1);
        }
        assert_eq!(rule.piece(f64::INFINITY), rule.cuts().len());
    }
}
