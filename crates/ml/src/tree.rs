//! CART-style decision trees (the J48 stand-in).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::arena::TreeArena;
use crate::codec;
use crate::dataset::Dataset;
use crate::error::MlError;
use crate::Classifier;

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        /// Fraction of positive training instances at this leaf.
        p_positive: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A binary decision tree trained with Gini impurity.
///
/// Serves two roles: the standalone J48-style classifier of §3.2's
/// comparison, and the base learner of [`RandomForest`]. Feature
/// subsampling (`max_features`) is only used in the forest role.
///
/// [`RandomForest`]: crate::RandomForest
///
/// # Example
///
/// ```
/// use smartflux_ml::{Classifier, Dataset, DecisionTree};
///
/// let data = Dataset::new(
///     vec![vec![1.0], vec![2.0], vec![8.0], vec![9.0]],
///     vec![false, false, true, true],
/// ).unwrap();
/// let mut tree = DecisionTree::new();
/// tree.fit(&data).unwrap();
/// assert!(tree.predict(&[7.5]));
/// assert!(!tree.predict(&[1.5]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    max_depth: usize,
    min_samples_split: usize,
    max_features: Option<usize>,
    seed: u64,
    root: Option<Node>,
}

impl Default for DecisionTree {
    fn default() -> Self {
        Self::new()
    }
}

impl DecisionTree {
    /// A tree with default hyper-parameters (depth ≤ 16, splits need ≥ 2
    /// instances, all features considered at every split).
    #[must_use]
    pub fn new() -> Self {
        Self {
            max_depth: 16,
            min_samples_split: 2,
            max_features: None,
            seed: 0,
            root: None,
        }
    }

    /// Sets the maximum tree depth (the paper's RF tuning knob).
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

    /// Sets the minimum number of instances required to split a node.
    #[must_use]
    pub fn with_min_samples_split(mut self, min: usize) -> Self {
        self.min_samples_split = min.max(2);
        self
    }

    /// Considers only a random subset of `k` features at each split
    /// (Random-Forest-style decorrelation).
    #[must_use]
    pub fn with_max_features(mut self, k: usize) -> Self {
        self.max_features = Some(k.max(1));
        self
    }

    /// Seeds the feature-subsampling RNG.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Depth of the fitted tree (0 for a single leaf). Returns `None`
    /// before fitting.
    #[must_use]
    pub fn depth(&self) -> Option<usize> {
        fn depth_of(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + depth_of(left).max(depth_of(right)),
            }
        }
        self.root.as_ref().map(depth_of)
    }

    fn build(&self, data: &Dataset, indices: &[usize], depth: usize, rng: &mut StdRng) -> Node {
        let positives = indices.iter().filter(|&&i| data.label(i)).count();
        let p_positive = positives as f64 / indices.len() as f64;

        let pure = positives == 0 || positives == indices.len();
        if pure || depth >= self.max_depth || indices.len() < self.min_samples_split {
            return Node::Leaf { p_positive };
        }

        let Some((feature, threshold)) = self.best_split(data, indices, rng) else {
            return Node::Leaf { p_positive };
        };

        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| data.features(i)[feature] <= threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            return Node::Leaf { p_positive };
        }

        Node::Split {
            feature,
            threshold,
            left: Box::new(self.build(data, &left_idx, depth + 1, rng)),
            right: Box::new(self.build(data, &right_idx, depth + 1, rng)),
        }
    }

    /// Finds the `(feature, threshold)` minimising weighted Gini impurity,
    /// or `None` when no split separates anything.
    fn best_split(
        &self,
        data: &Dataset,
        indices: &[usize],
        rng: &mut StdRng,
    ) -> Option<(usize, f64)> {
        let mut features: Vec<usize> = (0..data.n_features()).collect();
        if let Some(k) = self.max_features {
            features.shuffle(rng);
            features.truncate(k.min(features.len()));
            features.sort_unstable(); // deterministic evaluation order
        }

        let total = indices.len() as f64;
        let mut best: Option<(f64, usize, f64)> = None; // (gini, feature, threshold)

        for &f in &features {
            // Sort instances by this feature value.
            let mut order: Vec<usize> = indices.to_vec();
            order.sort_by(|&a, &b| data.features(a)[f].total_cmp(&data.features(b)[f]));

            let total_pos = order.iter().filter(|&&i| data.label(i)).count() as f64;
            let mut left_pos = 0.0;
            for (k, window) in order.windows(2).enumerate() {
                let (i, j) = (window[0], window[1]);
                if data.label(i) {
                    left_pos += 1.0;
                }
                let vi = data.features(i)[f];
                let vj = data.features(j)[f];
                if vi == vj {
                    continue; // cannot split between equal values
                }
                let left_n = (k + 1) as f64;
                let right_n = total - left_n;
                let right_pos = total_pos - left_pos;
                let gini = |pos: f64, n: f64| {
                    let p = pos / n;
                    2.0 * p * (1.0 - p)
                };
                let weighted = (left_n / total) * gini(left_pos, left_n)
                    + (right_n / total) * gini(right_pos, right_n);
                let threshold = f64::midpoint(vi, vj);
                if best.is_none_or(|(g, _, _)| weighted < g) {
                    best = Some((weighted, f, threshold));
                }
            }
        }
        best.map(|(_, f, t)| (f, t))
    }

    /// Appends the fitted tree in binary preorder form (tag 0 = leaf with
    /// probability bits, tag 1 = split with feature index and threshold
    /// bits). Returns `false` (appending nothing) before fitting.
    pub(crate) fn write_binary(&self, out: &mut Vec<u8>) -> bool {
        fn emit(node: &Node, out: &mut Vec<u8>) {
            match node {
                Node::Leaf { p_positive } => {
                    codec::put_u8(out, 0);
                    codec::put_f64(out, *p_positive);
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    codec::put_u8(out, 1);
                    codec::put_u32(out, *feature as u32);
                    codec::put_f64(out, *threshold);
                    emit(left, out);
                    emit(right, out);
                }
            }
        }
        match &self.root {
            Some(root) => {
                emit(root, out);
                true
            }
            None => false,
        }
    }

    /// Reads one tree in [`write_binary`](Self::write_binary) form from
    /// the reader, consuming exactly the tree's bytes. Restores default
    /// hyper-parameters (they do not affect a fitted tree's predictions).
    pub(crate) fn read_binary(r: &mut codec::Reader<'_>) -> Result<Self, MlError> {
        // Depth-bounded so corrupt bytes cannot encode a pathologically
        // nested chain of splits and overflow the stack during recovery.
        // Real trees never exceed their max_depth (default 16).
        const MAX_DECODE_DEPTH: usize = 512;
        fn parse(r: &mut codec::Reader<'_>, depth: usize) -> Result<Node, MlError> {
            if depth > MAX_DECODE_DEPTH {
                return Err(MlError::Decode(format!(
                    "tree nesting exceeds {MAX_DECODE_DEPTH} levels"
                )));
            }
            match r.u8()? {
                0 => {
                    let p = r.f64()?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(MlError::Decode(format!(
                            "leaf probability {p} out of range"
                        )));
                    }
                    Ok(Node::Leaf { p_positive: p })
                }
                1 => {
                    let feature = r.u32()? as usize;
                    let threshold = r.f64()?;
                    if !threshold.is_finite() {
                        return Err(MlError::Decode(format!(
                            "split threshold {threshold} is not finite"
                        )));
                    }
                    let left = parse(r, depth + 1)?;
                    let right = parse(r, depth + 1)?;
                    Ok(Node::Split {
                        feature,
                        threshold,
                        left: Box::new(left),
                        right: Box::new(right),
                    })
                }
                tag => Err(MlError::Decode(format!("unknown tree node tag {tag}"))),
            }
        }
        let root = parse(r, 0)?;
        let mut tree = DecisionTree::new();
        tree.root = Some(root);
        Ok(tree)
    }

    /// Appends the fitted tree to a forest arena: the root slot is
    /// reserved first, then each split reserves its two children as an
    /// adjacent pair before recursing, so sibling nodes always end up
    /// next to each other. Each `emit` returns its subtree's minimum
    /// leaf depth so the arena can record the tree's check-free walk
    /// prefix. Returns `false` (appending nothing) before fitting.
    pub(crate) fn flatten_into(&self, arena: &mut TreeArena) -> bool {
        fn emit(node: &Node, at: u32, arena: &mut TreeArena) -> u32 {
            match node {
                Node::Leaf { p_positive } => {
                    arena.set_leaf(at, *p_positive);
                    0
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let kids = arena.alloc_pair();
                    arena.set_split(at, *feature as u32, *threshold, kids);
                    let l = emit(left, kids, arena);
                    let r = emit(right, kids + 1, arena);
                    1 + l.min(r)
                }
            }
        }
        match &self.root {
            Some(root) => {
                let at = arena.alloc_root();
                let depth = emit(root, at, arena);
                arena.record_depth(depth);
                true
            }
            None => false,
        }
    }

    /// The reference prediction path: a pointer walk over the `Box`ed
    /// training representation. The forest predicts through its
    /// flattened [`TreeArena`] instead; this walk is kept as the
    /// independent oracle the parity suite compares against.
    fn leaf_probability(&self, features: &[f64]) -> f64 {
        let mut node = match &self.root {
            Some(n) => n,
            None => return 0.5,
        };
        loop {
            match node {
                Node::Leaf { p_positive } => return *p_positive,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if features[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }
}

impl Classifier for DecisionTree {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        let indices: Vec<usize> = (0..data.len()).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.root = Some(self.build(data, &indices, 0, &mut rng));
        Ok(())
    }

    fn is_fitted(&self) -> bool {
        self.root.is_some()
    }

    fn predict_proba(&self, features: &[f64]) -> f64 {
        self.leaf_probability(features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> Dataset {
        // positive iff x > 5
        Dataset::new(
            (0..20).map(|i| vec![i as f64]).collect(),
            (0..20).map(|i| i > 5).collect(),
        )
        .unwrap()
    }

    #[test]
    fn learns_a_threshold() {
        let mut t = DecisionTree::new();
        t.fit(&step_data()).unwrap();
        assert!(t.predict(&[10.0]));
        assert!(!t.predict(&[2.0]));
        assert_eq!(t.depth(), Some(1));
    }

    #[test]
    fn pure_dataset_is_a_leaf() {
        let d = Dataset::new(vec![vec![1.0], vec![2.0]], vec![true, true]).unwrap();
        let mut t = DecisionTree::new();
        t.fit(&d).unwrap();
        assert_eq!(t.depth(), Some(0));
        assert_eq!(t.predict_proba(&[100.0]), 1.0);
    }

    #[test]
    fn depth_limit_is_respected() {
        // XOR-ish data needs depth 2; cap at 1.
        let d = Dataset::new(
            vec![
                vec![0.0, 0.0],
                vec![0.0, 1.0],
                vec![1.0, 0.0],
                vec![1.0, 1.0],
            ],
            vec![false, true, true, false],
        )
        .unwrap();
        let mut t = DecisionTree::new().with_max_depth(1);
        t.fit(&d).unwrap();
        assert!(t.depth().unwrap() <= 1);

        let mut deep = DecisionTree::new();
        deep.fit(&d).unwrap();
        // Unconstrained, the tree solves XOR exactly.
        assert!(deep.predict(&[0.0, 1.0]));
        assert!(!deep.predict(&[1.0, 1.0]));
    }

    #[test]
    fn unfitted_returns_prior() {
        let t = DecisionTree::new();
        assert_eq!(t.predict_proba(&[1.0]), 0.5);
    }

    #[test]
    fn constant_features_yield_leaf() {
        let d = Dataset::new(vec![vec![3.0], vec![3.0]], vec![true, false]).unwrap();
        let mut t = DecisionTree::new();
        t.fit(&d).unwrap();
        assert_eq!(t.depth(), Some(0));
        assert_eq!(t.predict_proba(&[3.0]), 0.5);
    }

    #[test]
    fn probability_reflects_leaf_composition() {
        // One feature, left region has 1/3 positives.
        let d = Dataset::new(
            vec![vec![0.0], vec![0.0], vec![0.0], vec![10.0]],
            vec![true, false, false, true],
        )
        .unwrap();
        let mut t = DecisionTree::new();
        t.fit(&d).unwrap();
        let p_left = t.predict_proba(&[0.0]);
        assert!((p_left - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(t.predict_proba(&[10.0]), 1.0);
    }
}
