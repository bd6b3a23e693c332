//! Classification metrics: accuracy, precision, recall, F1 and ROC AUC.
//!
//! Semantics follow the paper's §3.2 definitions: *recall* measures how many
//! truly-must-execute waves the model caught (avoiding `maxε` violations),
//! *precision* measures how many predicted executions were truly needed
//! (avoiding wasted resources).

/// A 2×2 confusion matrix for binary classification.
///
/// # Example
///
/// ```
/// use smartflux_ml::metrics::ConfusionMatrix;
///
/// let cm = ConfusionMatrix::from_pairs(
///     &[true, true, false, false],
///     &[true, false, false, true],
/// );
/// assert_eq!(cm.tp, 1);
/// assert_eq!(cm.fn_, 1);
/// assert_eq!(cm.fp, 1);
/// assert_eq!(cm.tn, 1);
/// assert_eq!(cm.accuracy(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfusionMatrix {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// True negatives.
    pub tn: usize,
    /// False negatives.
    pub fn_: usize,
}

impl ConfusionMatrix {
    /// Builds a matrix from `(actual, predicted)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[must_use]
    pub fn from_pairs(actual: &[bool], predicted: &[bool]) -> Self {
        assert_eq!(actual.len(), predicted.len(), "length mismatch");
        let mut cm = ConfusionMatrix::default();
        for (&a, &p) in actual.iter().zip(predicted) {
            match (a, p) {
                (true, true) => cm.tp += 1,
                (false, true) => cm.fp += 1,
                (false, false) => cm.tn += 1,
                (true, false) => cm.fn_ += 1,
            }
        }
        cm
    }

    /// Merges counts from another matrix (e.g. across folds or labels).
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.tn += other.tn;
        self.fn_ += other.fn_;
    }

    /// Total number of instances.
    #[must_use]
    pub fn total(&self) -> usize {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Proportion of instances correctly classified. 1.0 when empty.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 1.0;
        }
        (self.tp + self.tn) as f64 / total as f64
    }

    /// `tp / (tp + fp)`: of the instances classified positive, how many
    /// truly were. 1.0 when nothing was classified positive.
    #[must_use]
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            return 1.0;
        }
        self.tp as f64 / (self.tp + self.fp) as f64
    }

    /// `tp / (tp + fn)`: of the truly positive instances, how many were
    /// caught. 1.0 when there were no positives.
    #[must_use]
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            return 1.0;
        }
        self.tp as f64 / (self.tp + self.fn_) as f64
    }

    /// Harmonic mean of precision and recall.
    #[must_use]
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            return 0.0;
        }
        2.0 * p * r / (p + r)
    }
}

/// Proportion of correct predictions.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn accuracy(actual: &[bool], predicted: &[bool]) -> f64 {
    ConfusionMatrix::from_pairs(actual, predicted).accuracy()
}

/// Precision of the positive class. See [`ConfusionMatrix::precision`].
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn precision(actual: &[bool], predicted: &[bool]) -> f64 {
    ConfusionMatrix::from_pairs(actual, predicted).precision()
}

/// Recall of the positive class. See [`ConfusionMatrix::recall`].
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn recall(actual: &[bool], predicted: &[bool]) -> f64 {
    ConfusionMatrix::from_pairs(actual, predicted).recall()
}

/// F1 score of the positive class.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn f1(actual: &[bool], predicted: &[bool]) -> f64 {
    ConfusionMatrix::from_pairs(actual, predicted).f1()
}

/// Area under the ROC curve, computed by the rank statistic
/// (Mann–Whitney U with midrank tie handling).
///
/// 1.0 is a perfect ranker; 0.5 is random guessing — the scale the paper
/// uses to report RF = 0.86 and SVM = 0.82. Degenerate inputs (all one
/// class) return 0.5.
///
/// # Panics
///
/// Panics if the slices differ in length.
///
/// # Example
///
/// ```
/// use smartflux_ml::metrics::roc_auc;
///
/// let auc = roc_auc(&[false, false, true, true], &[0.1, 0.4, 0.35, 0.8]);
/// assert!((auc - 0.75).abs() < 1e-12);
/// ```
#[must_use]
pub fn roc_auc(actual: &[bool], scores: &[f64]) -> f64 {
    assert_eq!(actual.len(), scores.len(), "length mismatch");
    let n_pos = actual.iter().filter(|&&a| a).count();
    let n_neg = actual.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }

    // Midranks of the scores.
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    let mut ranks = vec![0.0; scores.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let midrank = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            ranks[idx] = midrank;
        }
        i = j + 1;
    }

    let rank_sum_pos: f64 = actual
        .iter()
        .zip(&ranks)
        .filter(|(&a, _)| a)
        .map(|(_, &r)| r)
        .sum();
    let u = rank_sum_pos - (n_pos * (n_pos + 1)) as f64 / 2.0;
    u / (n_pos * n_neg) as f64
}

/// Per-label and aggregate quality of a multi-label prediction matrix.
///
/// The aggregate pools the per-label confusion counts (micro-averaging),
/// matching how the paper reports a single accuracy/precision/recall per
/// workload across all QoD steps.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiLabelReport {
    per_label: Vec<ConfusionMatrix>,
    pooled: ConfusionMatrix,
}

impl MultiLabelReport {
    /// Builds a report from actual and predicted label matrices.
    ///
    /// # Panics
    ///
    /// Panics if the matrices differ in shape.
    #[must_use]
    pub fn from_matrices(actual: &[Vec<bool>], predicted: &[Vec<bool>]) -> Self {
        assert_eq!(actual.len(), predicted.len(), "row count mismatch");
        let n_labels = actual.first().map_or(0, Vec::len);
        let mut per_label = vec![ConfusionMatrix::default(); n_labels];
        for (a_row, p_row) in actual.iter().zip(predicted) {
            assert_eq!(a_row.len(), n_labels, "ragged actual labels");
            assert_eq!(p_row.len(), n_labels, "ragged predicted labels");
            for ((cm, &a), &p) in per_label.iter_mut().zip(a_row).zip(p_row) {
                cm.merge(&ConfusionMatrix::from_pairs(&[a], &[p]));
            }
        }
        let mut pooled = ConfusionMatrix::default();
        for cm in &per_label {
            pooled.merge(cm);
        }
        Self { per_label, pooled }
    }

    /// The confusion matrix for label `j`.
    #[must_use]
    pub fn label(&self, j: usize) -> &ConfusionMatrix {
        &self.per_label[j]
    }

    /// Number of labels.
    #[must_use]
    pub fn n_labels(&self) -> usize {
        self.per_label.len()
    }

    /// Micro-averaged confusion matrix across all labels.
    #[must_use]
    pub fn pooled(&self) -> &ConfusionMatrix {
        &self.pooled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let y = [true, false, true];
        assert_eq!(accuracy(&y, &y), 1.0);
        assert_eq!(precision(&y, &y), 1.0);
        assert_eq!(recall(&y, &y), 1.0);
        assert_eq!(f1(&y, &y), 1.0);
    }

    #[test]
    fn degenerate_edges() {
        // Nothing predicted positive → precision defaults to 1.
        assert_eq!(precision(&[true, false], &[false, false]), 1.0);
        // No actual positives → recall defaults to 1.
        assert_eq!(recall(&[false, false], &[true, false]), 1.0);
        // Empty input.
        assert_eq!(accuracy(&[], &[]), 1.0);
    }

    #[test]
    fn recall_counts_missed_violations() {
        // 3 true positives, 1 missed.
        let actual = [true, true, true, true, false];
        let predicted = [true, true, true, false, false];
        assert_eq!(recall(&actual, &predicted), 0.75);
        assert_eq!(precision(&actual, &predicted), 1.0);
    }

    #[test]
    fn auc_perfect_and_inverted() {
        let y = [false, false, true, true];
        assert_eq!(roc_auc(&y, &[0.1, 0.2, 0.8, 0.9]), 1.0);
        assert_eq!(roc_auc(&y, &[0.9, 0.8, 0.2, 0.1]), 0.0);
    }

    #[test]
    fn auc_handles_ties() {
        let y = [false, true, false, true];
        let auc = roc_auc(&y, &[0.5, 0.5, 0.5, 0.5]);
        assert!((auc - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auc_single_class_is_half() {
        assert_eq!(roc_auc(&[true, true], &[0.1, 0.9]), 0.5);
    }

    #[test]
    fn f1_is_harmonic_mean() {
        let actual = [true, true, false, false];
        let predicted = [true, false, true, false];
        // precision 0.5, recall 0.5 → f1 0.5
        assert_eq!(f1(&actual, &predicted), 0.5);
    }

    #[test]
    fn multilabel_report_pools_counts() {
        let actual = vec![vec![true, false], vec![false, true]];
        let predicted = vec![vec![true, true], vec![false, true]];
        let r = MultiLabelReport::from_matrices(&actual, &predicted);
        assert_eq!(r.n_labels(), 2);
        assert_eq!(r.label(0).tp, 1);
        assert_eq!(r.label(1).fp, 1);
        assert_eq!(r.pooled().total(), 4);
        assert_eq!(r.pooled().accuracy(), 0.75);
    }
}
