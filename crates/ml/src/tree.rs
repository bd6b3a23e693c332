//! CART-style decision trees (the J48 stand-in).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::Classifier;

#[derive(Debug, Clone)]
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

/// Bitwise equality: `-0.0` and `0.0` are different models to every
/// oracle that compares trees, so each f64 is compared by its bits.
impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Node::Leaf { p_positive: a }, Node::Leaf { p_positive: b }) => {
                a.to_bits() == b.to_bits()
            }
            (
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                },
                Node::Split {
                    feature: other_feature,
                    threshold: other_threshold,
                    left: other_left,
                    right: other_right,
                },
            ) => {
                feature == other_feature
                    && threshold.to_bits() == other_threshold.to_bits()
                    && left == other_left
                    && right == other_right
            }
            _ => false,
        }
    }
}

impl Node {
    /// Node count of the subtree rooted here.
    fn count(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { left, right, .. } => 1 + left.count() + right.count(),
        }
    }

    /// Pushes the threshold of every split below here, in preorder.
    fn thresholds(&self, out: &mut Vec<f64>) {
        if let Node::Split {
            threshold,
            left,
            right,
            ..
        } = self
        {
            out.push(*threshold);
            left.thresholds(out);
            right.thresholds(out);
        }
    }

    /// Adds each leaf's probability to `sums[k]` for every piece `k` in
    /// `lo..hi` that reaches it. See [`DecisionTree::add_piece_votes`].
    fn add_piece_votes(&self, cuts: &[f64], lo: usize, hi: usize, sums: &mut [f64]) {
        match self {
            Node::Leaf { p_positive } => {
                for sum in &mut sums[lo..hi] {
                    *sum += p_positive;
                }
            }
            Node::Split {
                threshold,
                left,
                right,
                ..
            } => {
                // The pieces whose upper cut is at most the threshold go
                // left (`x <= t`); the last piece has no cut and goes right.
                let mid = lo + cuts[lo..hi.min(cuts.len())].partition_point(|&c| c <= *threshold);
                if lo < mid {
                    left.add_piece_votes(cuts, lo, mid, sums);
                }
                if mid < hi {
                    right.add_piece_votes(cuts, mid, hi, sums);
                }
            }
        }
    }
}

/// A [`Dataset`] laid out for tree induction: feature values column-major
/// and, per feature, the row ids in ascending value order.
///
/// Built once per `fit` call — once per forest, shared by every tree it
/// grows; once for a standalone tree — so no node of any tree sorts
/// anything. Rows with equal values sit in whatever order the sort
/// left them: no split candidate lies between equal values and the counts
/// at a candidate cover every instance at or below it, so tie order never
/// reaches a float (DESIGN.md §14, "Presorted induction").
#[derive(Debug)]
pub(crate) struct Presorted {
    n_rows: usize,
    n_features: usize,
    /// `values[f * n_rows + row]`.
    values: Vec<f64>,
    /// `sorted[f * n_rows + rank]`: the row holding feature `f`'s
    /// `rank`-th smallest value.
    sorted: Vec<u32>,
}

impl Presorted {
    /// Transposes and sorts `data`, one `O(n log n)` sort per feature.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidParameter`] for more than `u32::MAX`
    /// rows (row ids are stored as `u32`).
    pub(crate) fn new(data: &Dataset) -> Result<Self, MlError> {
        let n_rows = data.len();
        let n_ids = u32::try_from(n_rows).map_err(|_| {
            MlError::InvalidParameter(format!("{n_rows} rows exceed the tree grower's u32 ids"))
        })?;
        let n_features = data.n_features();
        let mut values = Vec::with_capacity(n_rows * n_features);
        let mut sorted = Vec::with_capacity(n_rows * n_features);
        for f in 0..n_features {
            let at = values.len();
            values.extend(data.x().iter().map(|row| row[f]));
            let column = &values[at..];
            sorted.extend(0..n_ids);
            sorted[at..]
                .sort_unstable_by(|&a, &b| column[a as usize].total_cmp(&column[b as usize]));
        }
        Ok(Self {
            n_rows,
            n_features,
            values,
            sorted,
        })
    }

    fn column(&self, f: usize) -> &[f64] {
        &self.values[f * self.n_rows..(f + 1) * self.n_rows]
    }

    fn ranks(&self, f: usize) -> &[u32] {
        &self.sorted[f * self.n_rows..(f + 1) * self.n_rows]
    }
}

/// One tree in flight: the row arrays a node is a range of, and the
/// scratch the recursion reuses, so growing allocates per tree and never
/// per node.
struct Grower<'a> {
    tree: &'a DecisionTree,
    view: &'a Presorted,
    labels: &'a [bool],
    /// How many instances of the tree's training multiset each row stands
    /// for. A row is carried once with its weight, not once per instance:
    /// instances of one row share a value, so no candidate ever fell
    /// between them, and every count below is the same integer either way.
    weight: &'a [u32],
    /// Rows with a non-zero weight: the length of each feature's array.
    len: usize,
    /// `order[f * len..][..len]`: the tree's rows in ascending order of
    /// feature `f`. A node is a range `[lo, hi)` holding the same rows in
    /// every feature's array.
    order: Vec<u32>,
    /// Right-hand side of the partition in progress.
    scratch: Vec<u32>,
    /// Per row: does it fall left of the split being applied. Only the
    /// rows of the node being split are written and read.
    goes_left: Vec<bool>,
    /// The features the node under evaluation considers.
    candidates: Vec<usize>,
    rng: StdRng,
}

impl<'a> Grower<'a> {
    fn new(
        tree: &'a DecisionTree,
        view: &'a Presorted,
        labels: &'a [bool],
        weight: &'a [u32],
    ) -> Self {
        let len = weight.iter().filter(|&&w| w > 0).count();
        // Dropping the undrawn rows from a sorted order keeps it sorted:
        // O(n) per feature and no comparison. Whether a row was drawn is a
        // coin flip, so every row is stored and only a drawn one advances
        // the cursor — hence the one slot of slack.
        let mut order = vec![0; view.n_features * len + 1];
        let mut at = 0;
        for f in 0..view.n_features {
            for &row in view.ranks(f) {
                order[at] = row;
                at += usize::from(weight[row as usize] > 0);
            }
        }
        Self {
            tree,
            view,
            labels,
            weight,
            len,
            order,
            scratch: vec![0; len],
            goes_left: vec![false; view.n_rows],
            candidates: Vec::with_capacity(view.n_features),
            rng: StdRng::seed_from_u64(tree.seed),
        }
    }

    fn grow_root(mut self) -> Node {
        if self.view.n_features == 0 {
            // No column to split on, and none to read the rows from.
            let n: usize = self.weight.iter().map(|&w| w as usize).sum();
            let positives: usize = (self.weight.iter().zip(self.labels))
                .map(|(&w, &label)| w as usize * usize::from(label))
                .sum();
            return Node::Leaf {
                p_positive: positives as f64 / n as f64,
            };
        }
        self.grow(0, self.len, 0)
    }

    /// Feature `f`'s slice of the node `[lo, hi)`.
    fn rows(&self, f: usize, lo: usize, hi: usize) -> &[u32] {
        &self.order[f * self.len + lo..f * self.len + hi]
    }

    /// Grows the subtree over `[lo, hi)` in preorder — left range, then
    /// right — so the feature-subsampling draws happen in node order.
    fn grow(&mut self, lo: usize, hi: usize, depth: usize) -> Node {
        let (mut n, mut positives) = (0, 0);
        for &i in self.rows(0, lo, hi) {
            let w = self.weight[i as usize] as usize;
            n += w;
            positives += w * usize::from(self.labels[i as usize]);
        }
        let leaf = Node::Leaf {
            p_positive: positives as f64 / n as f64,
        };

        let pure = positives == 0 || positives == n;
        if pure || depth >= self.tree.max_depth || n < self.tree.min_samples_split {
            return leaf;
        }
        let Some((feature, threshold)) = self.find_split(lo, hi, n, positives) else {
            return leaf;
        };

        // The split is applied by comparing against the threshold, not by
        // the candidate's position: a midpoint of adjacent floats may
        // round up onto the larger value and take its rows left too.
        let column = self.view.column(feature);
        let mut rows_left = 0;
        for &i in &self.order[feature * self.len + lo..feature * self.len + hi] {
            let left = column[i as usize] <= threshold;
            self.goes_left[i as usize] = left;
            rows_left += usize::from(left);
        }
        if rows_left == 0 || rows_left == hi - lo {
            return leaf;
        }
        let mid = lo + rows_left;
        for f in 0..self.view.n_features {
            if f != feature {
                // The split feature's own range is sorted by the value the
                // threshold cuts, so it is partitioned already.
                self.partition(f, lo, mid, hi);
            }
        }

        Node::Split {
            feature,
            threshold,
            left: Box::new(self.grow(lo, mid, depth + 1)),
            right: Box::new(self.grow(mid, hi, depth + 1)),
        }
    }

    /// Stable in-place partition of feature `f`'s `[lo, hi)` by
    /// `goes_left`, so both halves stay in ascending value order.
    ///
    /// Branch-free: which way a row goes is a coin flip to the predictor,
    /// so every row is stored to both sides and only the side it belongs
    /// to advances. The left cursor never passes the read position, so a
    /// speculative left store lands on a row already consumed.
    fn partition(&mut self, f: usize, lo: usize, mid: usize, hi: usize) {
        let range = &mut self.order[f * self.len + lo..f * self.len + hi];
        let scratch = &mut self.scratch[..range.len()];
        let (mut kept, mut spilled) = (0, 0);
        for at in 0..range.len() {
            let i = range[at];
            let left = usize::from(self.goes_left[i as usize]);
            range[kept] = i;
            scratch[spilled] = i;
            kept += left;
            spilled += 1 - left;
        }
        debug_assert_eq!(kept, mid - lo);
        range[kept..].copy_from_slice(&scratch[..spilled]);
    }

    /// Finds the `(feature, threshold)` minimising weighted Gini impurity
    /// over the node `[lo, hi)` of `n` instances, or `None` when no split
    /// separates anything.
    fn find_split(
        &mut self,
        lo: usize,
        hi: usize,
        n: usize,
        positives: usize,
    ) -> Option<(usize, f64)> {
        self.candidates.clear();
        self.candidates.extend(0..self.view.n_features);
        if let Some(k) = self.tree.max_features {
            self.candidates.shuffle(&mut self.rng);
            self.candidates.truncate(k.min(self.candidates.len()));
            self.candidates.sort_unstable(); // deterministic evaluation order
        }

        let total = n as f64;
        let total_pos = positives as f64;
        // (gini, feature, the two values the cut falls between)
        let mut best: Option<(f64, usize, f64, f64)> = None;

        for &f in &self.candidates {
            let column = self.view.column(f);
            let mut instances_left = 0;
            let mut left_pos = 0.0;
            for window in self.rows(f, lo, hi).windows(2) {
                let (i, j) = (window[0] as usize, window[1] as usize);
                instances_left += self.weight[i] as usize;
                if self.labels[i] {
                    left_pos += f64::from(self.weight[i]);
                }
                let vi = column[i];
                let vj = column[j];
                if vi == vj {
                    continue; // cannot split between equal values
                }
                let left_n = instances_left as f64;
                let right_n = total - left_n;
                let right_pos = total_pos - left_pos;
                let gini = |pos: f64, n: f64| {
                    let p = pos / n;
                    2.0 * p * (1.0 - p)
                };
                let weighted = (left_n / total) * gini(left_pos, left_n)
                    + (right_n / total) * gini(right_pos, right_n);
                if best.is_none_or(|(g, ..)| weighted < g) {
                    best = Some((weighted, f, vi, vj));
                }
            }
        }
        best.map(|(_, f, vi, vj)| (f, f64::midpoint(vi, vj)))
    }
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

    /// Grows the tree over `view` for the multiset of instances in which
    /// row `r` occurs `weight[r]` times: all ones for a standalone tree, a
    /// bootstrap's draw counts inside a forest.
    pub(crate) fn fit_presorted(&mut self, view: &Presorted, labels: &[bool], weight: &[u32]) {
        self.root = Some(Grower::new(self, view, labels, weight).grow_root());
    }

    /// Node count of the fitted tree, leaves included; 0 before fitting.
    pub(crate) fn n_nodes(&self) -> usize {
        self.root.as_ref().map_or(0, Node::count)
    }

    /// Pushes the threshold of every split, in preorder, duplicates
    /// included: the points at which the tree's routing changes.
    pub(crate) fn split_thresholds(&self, out: &mut Vec<f64>) {
        if let Some(root) = &self.root {
            root.thresholds(out);
        }
    }

    /// Adds the tree's leaf probability on each piece of a single-feature
    /// axis to `sums`, where `cuts` holds split thresholds, sorted and
    /// distinct, and covers all of this tree's: piece `k` is
    /// `(cuts[k-1], cuts[k]]`, and the last piece (`sums` has one more
    /// entry than `cuts`) lies above every cut, NaN included.
    ///
    /// One walk sends each split's pieces to the side their upper cut goes
    /// to, so every piece gets exactly one addition: the probability of
    /// the leaf [`predict_proba`](Classifier::predict_proba) reaches at any
    /// point of the piece. Costs one visit per node plus one addition per
    /// piece, where a walk per piece would cost a descent per piece.
    pub(crate) fn add_piece_votes(&self, cuts: &[f64], sums: &mut [f64]) {
        debug_assert_eq!(sums.len(), cuts.len() + 1);
        if let Some(root) = &self.root {
            root.add_piece_votes(cuts, 0, sums.len(), sums);
        }
    }

    /// Every node in preorder, one line each: a split as
    /// `s <feature> <threshold bits>`, a leaf as `l <p_positive bits>`,
    /// the bits in hex. Empty before fitting.
    #[cfg(test)]
    pub(crate) fn preorder_bits(&self) -> String {
        use std::fmt::Write;
        fn print(node: &Node, out: &mut String) {
            match node {
                Node::Leaf { p_positive } => {
                    let _ = writeln!(out, "l {:016x}", p_positive.to_bits());
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let _ = writeln!(out, "s {feature} {:016x}", threshold.to_bits());
                    print(left, out);
                    print(right, out);
                }
            }
        }
        let mut out = String::new();
        if let Some(root) = &self.root {
            print(root, &mut out);
        }
        out
    }

    /// The tree's prediction: a walk from the root that goes left at a
    /// split exactly when `features[feature] <= threshold`, so a NaN
    /// feature goes right. The 0.5 prior before fitting.
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

/// The induction routine the presorted [`Grower`] replaced, kept as the
/// reference its differential oracle compares against: every node copies
/// its instances and re-sorts them per candidate feature.
#[cfg(test)]
impl DecisionTree {
    pub(crate) fn fit_reference(&mut self, data: &Dataset) {
        let indices: Vec<usize> = (0..data.len()).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.root = Some(self.build(data, &indices, 0, &mut rng));
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
}

impl Classifier for DecisionTree {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        let view = Presorted::new(data)?;
        self.fit_presorted(&view, data.y(), &vec![1; data.len()]);
        Ok(())
    }

    fn is_fitted(&self) -> bool {
        self.root.is_some()
    }

    fn predict_proba(&self, features: &[f64]) -> f64 {
        self.leaf_probability(features)
    }
}

/// Datasets built to make the two growers disagree if they can: few
/// distinct values per column (ties), both zeros, adjacent floats whose
/// midpoint rounds onto one of them, and duplicated rows with
/// independent labels. Shared by the tree and the forest oracle.
#[cfg(test)]
pub(crate) fn tied_dataset(rng: &mut StdRng, n_rows: usize, n_features: usize) -> Dataset {
    use rand::Rng;

    const POOL: [f64; 9] = [
        -3.0,
        -0.0,
        0.0,
        1.0,
        1.000_000_000_000_000_2,
        1.000_000_000_000_000_4,
        2.5,
        7.0,
        7.25,
    ];
    let distinct = rng.random_range(1..=POOL.len());
    let from = rng.random_range(0..=POOL.len() - distinct);
    let mut x: Vec<Vec<f64>> = (0..n_rows)
        .map(|_| {
            (0..n_features)
                .map(|_| POOL[from + rng.random_range(0..distinct)])
                .collect()
        })
        .collect();
    for _ in 0..n_rows / 4 {
        let (a, b) = (rng.random_range(0..n_rows), rng.random_range(0..n_rows));
        x[a] = x[b].clone();
    }
    // Labels follow the first column loosely, so trees have something
    // to learn and something to overfit.
    let y = x
        .iter()
        .map(|row| (row[0] > 1.0) ^ (rng.random_range(0..5) == 0))
        .collect();
    Dataset::new(x, y).expect("pool values are finite")
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::Rng;

    use super::*;

    /// How often each row of an `n_rows` dataset occurs in `sample`.
    fn draw_counts(sample: &[usize], n_rows: usize) -> Vec<u32> {
        let mut counts = vec![0; n_rows];
        for &i in sample {
            counts[i] += 1;
        }
        counts
    }

    proptest! {
        /// The differential oracle: on any multiset of rows the presorted
        /// grower builds the tree the per-node-sort reference builds on
        /// the materialised sample.
        #[test]
        fn presorted_grower_matches_reference(
            seed in any::<u64>(),
            (n_rows, n_features) in (1usize..70, 1usize..=6),
            (max_depth, min_samples_split) in (1usize..=12, 2usize..=6),
            max_features in proptest::option::of(1usize..=6),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let data = tied_dataset(&mut rng, n_rows, n_features);
            let view = Presorted::new(&data).unwrap();
            let mut config = DecisionTree::new()
                .with_max_depth(max_depth)
                .with_min_samples_split(min_samples_split)
                .with_seed(seed ^ 0x5EED);
            config.max_features = max_features;

            // Bootstraps of several sizes, then the standalone tree (every
            // row exactly once), each against the reference.
            for m in [n_rows, 1 + n_rows / 2, 2 * n_rows] {
                let sample: Vec<usize> = (0..m).map(|_| rng.random_range(0..n_rows)).collect();
                let mut reference = config.clone();
                reference.fit_reference(&data.subset(&sample));
                let mut grown = config.clone();
                grown.fit_presorted(&view, data.y(), &draw_counts(&sample, n_rows));
                prop_assert_eq!(&grown, &reference);
            }
            let mut reference = config.clone();
            reference.fit_reference(&data);
            let mut standalone = config.clone();
            standalone.fit(&data).unwrap();
            prop_assert_eq!(standalone, reference);
        }
    }

    #[test]
    fn presorted_degenerate_nodes_are_todays_leaves() {
        let cases = [
            // An all-ties column with mixed labels: nothing to split on.
            (
                vec![vec![3.0], vec![3.0], vec![3.0]],
                vec![true, false, false],
            ),
            // A pure node.
            (vec![vec![1.0], vec![2.0]], vec![true, true]),
            // Both zeros compare equal: no candidate between them.
            (vec![vec![-0.0], vec![0.0]], vec![true, false]),
            // The midpoint of adjacent floats rounds up onto the larger
            // one, which then goes left with the smaller: no split.
            (
                vec![vec![1.000_000_000_000_000_2], vec![1.000_000_000_000_000_4]],
                vec![true, false],
            ),
            // No columns at all.
            (vec![vec![], vec![]], vec![true, false]),
        ];
        for (x, y) in cases {
            let data = Dataset::new(x, y).unwrap();
            let mut reference = DecisionTree::new();
            reference.fit_reference(&data);
            let mut grown = DecisionTree::new();
            grown.fit(&data).unwrap();
            assert_eq!(grown, reference, "{data:?}");
        }
    }

    #[test]
    fn equality_tells_the_zeros_apart() {
        let tree = |root: Node| DecisionTree {
            root: Some(root),
            ..DecisionTree::new()
        };
        let leaf = |p_positive: f64| Box::new(Node::Leaf { p_positive });
        let split = |threshold: f64, p_left: f64| Node::Split {
            feature: 0,
            threshold,
            left: leaf(p_left),
            right: leaf(1.0),
        };
        assert_eq!(tree(split(0.0, 0.0)), tree(split(0.0, 0.0)));
        assert_ne!(tree(split(0.0, 0.0)), tree(split(-0.0, 0.0)));
        assert_ne!(tree(split(0.0, 0.0)), tree(split(0.0, -0.0)));
        assert_ne!(
            tree(Node::Leaf { p_positive: 0.0 }),
            tree(Node::Leaf { p_positive: -0.0 })
        );
    }

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
