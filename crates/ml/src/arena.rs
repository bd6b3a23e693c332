//! Flattened struct-of-arrays tree storage for the forest hot path.
//!
//! The pointer-based [`DecisionTree`] representation is ideal for
//! training (recursive splitting), but prediction over `Box`ed nodes
//! chases one heap allocation per level per tree. A fitted forest is
//! immutable, so at fit time every tree is flattened into one contiguous arena shared by the whole
//! forest: four parallel arrays (`feature`/`threshold`/`left`/
//! `leaf_proba`) plus the root index and minimum leaf depth of each
//! tree.
//!
//! Layout invariants:
//!
//! - A split stores its feature index and threshold in place, and its
//!   two children **adjacently**: the left child at `left[i]`, the right
//!   at `left[i] + 1`. Walking a tree therefore touches a single array
//!   region instead of scattered heap nodes.
//! - A leaf is a *self-looping* node: `threshold[i]` is NaN (every
//!   comparison with NaN is false, so the walk always takes the "right"
//!   branch) and `left[i] = i - 1` (wrapping), making the right child
//!   `left[i] + 1 = i` — the node itself. Stepping a lane that already
//!   sits on a leaf is a harmless no-op, which lets the walk loops run a
//!   fixed, branch-free number of steps. The leaf's probability lives in
//!   `leaf_proba[i]`; `feature[i]` is 0 so the (dead) feature load stays
//!   in bounds.
//! - `min_depths[t]` is the *shortest* root-to-leaf edge count of tree
//!   `t`: a walk's first `min_depths[t]` levels cannot terminate, so
//!   they run with no completion checks at all.
//! - Trees are appended in ensemble order and `roots[t]` indexes tree
//!   `t`, so averaging over `roots` reproduces the pointer walk's exact
//!   f64 summation order — the arena changes memory layout, never
//!   arithmetic. This is what keeps flat predictions bit-identical to
//!   the reference path (see `forest::tests::parity`).
//!
//! The predict paths walk several trees (or several samples) in
//! interleaved lanes: a tree descent is a chain of dependent loads, so a
//! single walk is bound by memory latency, not bandwidth or compute.
//! Stepping [`LANES`] descents round-robin keeps that many loads in
//! flight, and the self-looping leaves make the inner loop branchless —
//! together these are what make the flat layout measurably faster than
//! pointer chasing; the layout alone merely matches it (a micro-bench
//! of the three paths measured flat ≈ 2.1× the pointer walk at 50 trees,
//! depth 16; EXPERIMENTS.md keeps the table).
//!
//! [`DecisionTree`]: crate::DecisionTree

/// Concurrent walk width: how many independent tree descents are kept in
/// flight at once (trees per group in [`TreeArena::predict_proba`],
/// samples per block in [`TreeArena::predict_batch`]). Sixteen dependent
/// load chains keep the load units saturated across L1/L2 latency on
/// current cores while the lane cursors still fit in registers; a
/// micro-bench of the predict paths measured 16 consistently ahead of 8
/// here.
const LANES: usize = 16;

/// A forest's flattened node storage: one allocation per array, shared
/// by every tree in the ensemble.
///
/// Built internally by [`RandomForest`](crate::RandomForest) at fit time;
/// exposed read-only for diagnostics, benchmarks and equality oracles.
#[derive(Debug, Clone, Default)]
pub struct TreeArena {
    /// Split feature per node; 0 (a dead in-bounds load) for leaves.
    feature: Vec<u32>,
    /// Split threshold per node; NaN for leaves (self-loop routing).
    threshold: Vec<f64>,
    /// Left-child index per node; the right child is `left[i] + 1`.
    /// Leaves store `i - 1` (wrapping) so their right child is `i`.
    left: Vec<u32>,
    /// Positive-class probability per leaf (unused for splits).
    leaf_proba: Vec<f64>,
    /// Root node index of each tree, in ensemble order.
    roots: Vec<u32>,
    /// Shortest root-to-leaf edge count of each tree: the walk prefix
    /// that is guaranteed branch-free (no lane can rest on a leaf yet).
    min_depths: Vec<u32>,
}

/// Bitwise f64 slice equality: leaf thresholds are NaN by construction,
/// so semantic `==` would report equal arenas as different.
pub(crate) fn f64_bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl PartialEq for TreeArena {
    fn eq(&self, other: &Self) -> bool {
        self.feature == other.feature
            && self.left == other.left
            && self.roots == other.roots
            && self.min_depths == other.min_depths
            && f64_bits_eq(&self.threshold, &other.threshold)
            && f64_bits_eq(&self.leaf_proba, &other.leaf_proba)
    }
}

impl TreeArena {
    /// An arena with no trees.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all trees but keeps the allocations for rebuilding.
    pub(crate) fn clear(&mut self) {
        self.feature.clear();
        self.threshold.clear();
        self.left.clear();
        self.leaf_proba.clear();
        self.roots.clear();
        self.min_depths.clear();
    }

    /// Number of flattened trees.
    #[must_use]
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Total node count across all trees.
    #[must_use]
    pub fn n_nodes(&self) -> usize {
        self.feature.len()
    }

    /// `true` when no tree has been flattened in.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// The threshold of every split node, in arena order, duplicates
    /// included: the points at which some tree's routing changes.
    pub(crate) fn split_thresholds(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.threshold.len() as u32)
            .filter(|&i| !self.is_leaf(i))
            .map(|i| self.threshold[i as usize])
    }

    /// Appends one node slot, initialised as a self-looping leaf.
    fn push_node(&mut self) -> u32 {
        let idx = self.feature.len() as u32;
        self.feature.push(0);
        self.threshold.push(f64::NAN);
        self.left.push(idx.wrapping_sub(1));
        self.leaf_proba.push(0.5);
        idx
    }

    /// Reserves the root slot of a new tree and records it in `roots`.
    pub(crate) fn alloc_root(&mut self) -> u32 {
        let idx = self.push_node();
        self.roots.push(idx);
        idx
    }

    /// Records the minimum leaf depth of the most recently allocated
    /// root's tree. Every `alloc_root` must be paired with one
    /// `record_depth` once the tree's nodes are filled in.
    pub(crate) fn record_depth(&mut self, min_depth: u32) {
        debug_assert_eq!(self.min_depths.len() + 1, self.roots.len());
        self.min_depths.push(min_depth);
    }

    /// Reserves two adjacent child slots, returning the left index (the
    /// right child is the returned index + 1).
    pub(crate) fn alloc_pair(&mut self) -> u32 {
        let idx = self.push_node();
        self.push_node();
        idx
    }

    /// Fills a reserved slot as a leaf.
    pub(crate) fn set_leaf(&mut self, at: u32, p_positive: f64) {
        let i = at as usize;
        self.feature[i] = 0;
        self.threshold[i] = f64::NAN;
        self.left[i] = at.wrapping_sub(1);
        self.leaf_proba[i] = p_positive;
    }

    /// Fills a reserved slot as a split whose children start at `kids`.
    pub(crate) fn set_split(&mut self, at: u32, feature: u32, threshold: f64, kids: u32) {
        let at = at as usize;
        self.feature[at] = feature;
        self.threshold[at] = threshold;
        self.left[at] = kids;
    }

    /// Advances one lane cursor one level down its tree. Branchless: a
    /// lane resting on a leaf self-loops (NaN threshold compares false,
    /// routing to `left + 1 = i`).
    #[inline(always)]
    fn step(&self, c: &mut u32, features: &[f64]) {
        let i = *c as usize;
        let go_left = features[self.feature[i] as usize] <= self.threshold[i];
        *c = self.left[i].wrapping_add(u32::from(!go_left));
    }

    /// `true` when node `c` is a leaf. Exact: only leaves store the
    /// wrapping `i - 1` left pointer (split children are always
    /// allocated after their parent, so a split's `left[i] > i`).
    #[inline(always)]
    fn is_leaf(&self, c: u32) -> bool {
        self.left[c as usize] == c.wrapping_sub(1)
    }

    /// Drives every lane from its root to its leaf.
    ///
    /// The first `safe` levels run with no completion checks at all —
    /// callers pass the minimum leaf depth, below which no lane can
    /// terminate. After that the loop stays branch-free in the steps
    /// themselves (finished lanes self-loop harmlessly) and only tests
    /// for completion every second level, trading at most one wasted
    /// double-step per group for a much shorter dependency path.
    #[inline]
    fn walk_lanes<'a>(&self, lanes: &mut [u32], safe: u32, features: impl Fn(usize) -> &'a [f64]) {
        for _ in 0..safe {
            for (l, c) in lanes.iter_mut().enumerate() {
                self.step(c, features(l));
            }
        }
        while !lanes.iter().all(|&c| self.is_leaf(c)) {
            for (l, c) in lanes.iter_mut().enumerate() {
                self.step(c, features(l));
            }
            for (l, c) in lanes.iter_mut().enumerate() {
                self.step(c, features(l));
            }
        }
    }

    /// Ensemble-averaged positive probability for one sample, summing
    /// trees in ensemble order (bit-identical to the pointer walk).
    ///
    /// Walks up to `LANES` (16) trees concurrently (one lane per tree) so
    /// their per-level loads overlap; the leaf probabilities are still
    /// added strictly in ensemble order, so the f64 sum is unchanged.
    ///
    /// # Panics
    ///
    /// Panics when the arena is empty; callers check [`is_empty`] first.
    ///
    /// [`is_empty`]: Self::is_empty
    #[must_use]
    pub fn predict_proba(&self, features: &[f64]) -> f64 {
        let mut sum = 0.0_f64;
        let mut cur = [0_u32; LANES];
        for (group, depths) in self.roots.chunks(LANES).zip(self.min_depths.chunks(LANES)) {
            let lanes = &mut cur[..group.len()];
            lanes.copy_from_slice(group);
            let safe = depths.iter().copied().min().unwrap_or(0);
            self.walk_lanes(lanes, safe, |_| features);
            for &c in lanes.iter() {
                sum += self.leaf_proba[c as usize];
            }
        }
        sum / self.roots.len() as f64
    }

    /// Ensemble-averaged probabilities for a batch of samples.
    ///
    /// Iterates trees in the outer loop so each tree's node region stays
    /// hot in cache across the whole batch, walking `LANES` (16) samples
    /// concurrently per tree (one lane per sample). Per sample the tree
    /// contributions accumulate in ensemble order — the same f64
    /// addition sequence as [`predict_proba`] — keeping batch results
    /// bit-identical to per-sample results.
    ///
    /// [`predict_proba`]: Self::predict_proba
    #[must_use]
    pub fn predict_batch<S: AsRef<[f64]>>(&self, samples: &[S]) -> Vec<f64> {
        let mut sums = vec![0.0_f64; samples.len()];
        let mut cur = [0_u32; LANES];
        for (&root, &safe) in self.roots.iter().zip(&self.min_depths) {
            for (block, sums_block) in samples.chunks(LANES).zip(sums.chunks_mut(LANES)) {
                let mut refs: [&[f64]; LANES] = [&[]; LANES];
                for (r, s) in refs.iter_mut().zip(block) {
                    *r = s.as_ref();
                }
                let lanes = &mut cur[..block.len()];
                lanes.fill(root);
                self.walk_lanes(lanes, safe, |l| refs[l]);
                for (sum, &c) in sums_block.iter_mut().zip(lanes.iter()) {
                    *sum += self.leaf_proba[c as usize];
                }
            }
        }
        let n = self.roots.len() as f64;
        for sum in &mut sums {
            *sum /= n;
        }
        sums
    }

    /// Ensemble-averaged probability on each piece of a single-feature
    /// forest's axis, where `cuts` holds every split threshold, sorted and
    /// distinct: piece `k` is `(cuts[k-1], cuts[k]]`, and the last piece
    /// lies above every cut (NaN included).
    ///
    /// One walk per tree sends each split's pieces to the side their upper
    /// cut goes to, and adds every leaf's probability to the pieces that
    /// reach it. Each piece thus gets one leaf per tree, added in ensemble
    /// order, and one division: the f64 operations [`predict_proba`] makes
    /// at any point of the piece, in its order, so each value is its
    /// result bit for bit. Costs one visit per node plus one addition per
    /// piece and tree, where a walk per piece would cost a descent per
    /// piece and tree.
    ///
    /// [`predict_proba`]: Self::predict_proba
    pub(crate) fn piece_votes(&self, cuts: &[f64]) -> Vec<f64> {
        let mut sums = vec![0.0_f64; cuts.len() + 1];
        let mut pending = Vec::new();
        for &root in &self.roots {
            pending.push((root, 0, sums.len()));
            while let Some((node, lo, hi)) = pending.pop() {
                let i = node as usize;
                if self.is_leaf(node) {
                    for sum in &mut sums[lo..hi] {
                        *sum += self.leaf_proba[i];
                    }
                    continue;
                }
                // The pieces whose upper cut is at most the threshold go
                // left (`x <= t`); the last piece has no cut and goes right.
                let t = self.threshold[i];
                let mid = lo + cuts[lo..hi.min(cuts.len())].partition_point(|&c| c <= t);
                if lo < mid {
                    pending.push((self.left[i], lo, mid));
                }
                if mid < hi {
                    pending.push((self.left[i] + 1, mid, hi));
                }
            }
        }
        let n = self.roots.len() as f64;
        for sum in &mut sums {
            *sum /= n;
        }
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-build the arena for: root split on feature 0 at 5.0;
    /// left = leaf 0.1, right = split on feature 1 at 2.0 with
    /// leaves 0.6 / 0.9.
    fn small_arena() -> TreeArena {
        let mut a = TreeArena::new();
        let root = a.alloc_root();
        let kids = a.alloc_pair();
        a.set_split(root, 0, 5.0, kids);
        a.set_leaf(kids, 0.1);
        let grandkids = a.alloc_pair();
        a.set_split(kids + 1, 1, 2.0, grandkids);
        a.set_leaf(grandkids, 0.6);
        a.set_leaf(grandkids + 1, 0.9);
        // Minimum leaf depth: the left leaf sits one level down.
        a.record_depth(1);
        a
    }

    #[test]
    fn walks_to_the_right_leaf() {
        let a = small_arena();
        assert_eq!(a.n_trees(), 1);
        assert_eq!(a.n_nodes(), 5);
        assert_eq!(a.predict_proba(&[1.0, 0.0]), 0.1);
        assert_eq!(a.predict_proba(&[9.0, 1.0]), 0.6);
        assert_eq!(a.predict_proba(&[9.0, 3.0]), 0.9);
        // Boundary goes left (<=), matching the pointer walk.
        assert_eq!(a.predict_proba(&[5.0, 0.0]), 0.1);
    }

    #[test]
    fn shallow_lanes_self_loop_while_deep_lanes_finish() {
        // A depth-0 tree grouped with the depth-2 tree: the leaf lane
        // must idle on its self-loop for the group's extra steps.
        let mut a = small_arena();
        let r1 = a.alloc_root();
        a.set_leaf(r1, 1.0);
        a.record_depth(0);
        assert_eq!(a.predict_proba(&[1.0, 0.0]), (0.1 + 1.0) / 2.0);
        assert_eq!(a.predict_proba(&[9.0, 3.0]), (0.9 + 1.0) / 2.0);
    }

    #[test]
    fn batch_matches_per_sample() {
        let a = small_arena();
        let samples: Vec<Vec<f64>> = vec![
            vec![1.0, 0.0],
            vec![9.0, 1.0],
            vec![9.0, 3.0],
            vec![5.0, 2.0],
        ];
        let batched = a.predict_batch(&samples);
        for (s, b) in samples.iter().zip(&batched) {
            assert_eq!(a.predict_proba(s), *b);
        }
    }

    #[test]
    fn multiple_trees_average_in_order() {
        let mut a = TreeArena::new();
        let r0 = a.alloc_root();
        a.set_leaf(r0, 0.25);
        a.record_depth(0);
        let r1 = a.alloc_root();
        a.set_leaf(r1, 0.75);
        a.record_depth(0);
        assert_eq!(a.n_trees(), 2);
        assert_eq!(a.predict_proba(&[]), (0.25 + 0.75) / 2.0);
    }

    #[test]
    fn nan_features_route_right_exactly_like_the_reference_walk() {
        // `x <= t` is false for NaN, so a NaN feature always goes right
        // — on both the reference walk and the flat walk — and a leaf's
        // NaN threshold self-loops regardless of the feature value.
        let a = small_arena();
        assert_eq!(a.predict_proba(&[f64::NAN, f64::NAN]), 0.9);
    }

    #[test]
    fn equality_is_bitwise_despite_nan_thresholds() {
        assert_eq!(small_arena(), small_arena());
        let mut other = small_arena();
        let r = other.alloc_root();
        other.set_leaf(r, 0.5);
        other.record_depth(0);
        assert_ne!(small_arena(), other);
    }

    #[test]
    fn clear_keeps_nothing() {
        let mut a = small_arena();
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.n_nodes(), 0);
    }
}
