//! Feature/label containers.

use crate::error::MlError;

fn validate_features(x: &[Vec<f64>]) -> Result<usize, MlError> {
    if x.is_empty() {
        return Err(MlError::EmptyDataset);
    }
    let width = x[0].len();
    for (i, row) in x.iter().enumerate() {
        if row.len() != width {
            return Err(MlError::RaggedFeatures {
                expected: width,
                found: row.len(),
                row: i,
            });
        }
        for (j, v) in row.iter().enumerate() {
            if !v.is_finite() {
                return Err(MlError::NonFiniteFeature { row: i, column: j });
            }
        }
    }
    Ok(width)
}

/// A binary-classification dataset: numeric feature rows plus boolean labels.
///
/// Construction validates shape (rectangular, finite, labels aligned), so a
/// `Dataset` handed to a classifier is always well-formed.
///
/// # Example
///
/// ```
/// use smartflux_ml::Dataset;
///
/// let d = Dataset::new(vec![vec![1.0, 2.0], vec![3.0, 4.0]], vec![true, false]).unwrap();
/// assert_eq!(d.len(), 2);
/// assert_eq!(d.n_features(), 2);
/// assert_eq!(d.positives(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    x: Vec<Vec<f64>>,
    y: Vec<bool>,
    n_features: usize,
}

impl Dataset {
    /// Builds a dataset from feature rows and labels.
    ///
    /// # Errors
    ///
    /// Fails if `x` is empty, ragged or non-finite, or if `y` is not the
    /// same length as `x`.
    pub fn new(x: Vec<Vec<f64>>, y: Vec<bool>) -> Result<Self, MlError> {
        let n_features = validate_features(&x)?;
        if x.len() != y.len() {
            return Err(MlError::LabelMismatch {
                rows: x.len(),
                labels: y.len(),
            });
        }
        Ok(Self { x, y, n_features })
    }

    /// Number of instances.
    #[must_use]
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Returns `true` if the dataset has no instances (never true for a
    /// successfully constructed dataset).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Number of features per instance.
    #[must_use]
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Feature row `i`.
    #[must_use]
    pub fn features(&self, i: usize) -> &[f64] {
        &self.x[i]
    }

    /// Label of instance `i`.
    #[must_use]
    pub fn label(&self, i: usize) -> bool {
        self.y[i]
    }

    /// All feature rows.
    #[must_use]
    pub fn x(&self) -> &[Vec<f64>] {
        &self.x
    }

    /// All labels.
    #[must_use]
    pub fn y(&self) -> &[bool] {
        &self.y
    }

    /// Number of positive instances.
    #[must_use]
    pub fn positives(&self) -> usize {
        self.y.iter().filter(|&&b| b).count()
    }

    /// Builds a dataset from a subset of instance indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[must_use]
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            x: indices.iter().map(|&i| self.x[i].clone()).collect(),
            y: indices.iter().map(|&i| self.y[i]).collect(),
            n_features: self.n_features,
        }
    }
}

/// A multi-label dataset: shared feature rows, one boolean per label column.
///
/// This mirrors the paper's learning problem: the feature vector is the
/// per-step input impacts for a wave; label column `j` says whether step
/// `j`'s output error exceeds its bound (i.e. the step must execute).
///
/// # Example
///
/// ```
/// use smartflux_ml::MultiLabelDataset;
///
/// let d = MultiLabelDataset::new(
///     vec![vec![694.86, 601.6], vec![191.24, 886.1]],
///     vec![vec![true, false], vec![false, false]],
/// ).unwrap();
/// assert_eq!(d.n_labels(), 2);
/// assert!(d.label_column(0).unwrap()[0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MultiLabelDataset {
    x: Vec<Vec<f64>>,
    y: Vec<Vec<bool>>,
    n_features: usize,
    n_labels: usize,
}

impl MultiLabelDataset {
    /// Builds a multi-label dataset.
    ///
    /// # Errors
    ///
    /// Fails on the same shape violations as [`Dataset::new`], applied to
    /// both the feature matrix and the label matrix.
    pub fn new(x: Vec<Vec<f64>>, y: Vec<Vec<bool>>) -> Result<Self, MlError> {
        let n_features = validate_features(&x)?;
        if x.len() != y.len() {
            return Err(MlError::LabelMismatch {
                rows: x.len(),
                labels: y.len(),
            });
        }
        let n_labels = y[0].len();
        for (i, row) in y.iter().enumerate() {
            if row.len() != n_labels {
                return Err(MlError::RaggedFeatures {
                    expected: n_labels,
                    found: row.len(),
                    row: i,
                });
            }
        }
        Ok(Self {
            x,
            y,
            n_features,
            n_labels,
        })
    }

    /// Number of instances.
    #[must_use]
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Returns `true` if there are no instances.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Number of features per instance.
    #[must_use]
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of label columns.
    #[must_use]
    pub fn n_labels(&self) -> usize {
        self.n_labels
    }

    /// All feature rows.
    #[must_use]
    pub fn x(&self) -> &[Vec<f64>] {
        &self.x
    }

    /// All label rows.
    #[must_use]
    pub fn y(&self) -> &[Vec<bool>] {
        &self.y
    }

    /// Label column `j` as a plain vector.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidParameter`] if `j` is out of range.
    pub fn label_column(&self, j: usize) -> Result<Vec<bool>, MlError> {
        if j >= self.n_labels {
            return Err(MlError::InvalidParameter(format!(
                "label column {j} out of range (have {})",
                self.n_labels
            )));
        }
        Ok(self.y.iter().map(|r| r[j]).collect())
    }

    /// Takes the first `n` instances (a training prefix, as the paper does
    /// when varying training-set size in Fig. 8).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the dataset length.
    #[must_use]
    pub fn prefix(&self, n: usize) -> MultiLabelDataset {
        assert!(n > 0 && n <= self.len(), "prefix length out of range");
        MultiLabelDataset {
            x: self.x[..n].to_vec(),
            y: self.y[..n].to_vec(),
            n_features: self.n_features,
            n_labels: self.n_labels,
        }
    }

    /// Takes the instances from `start` to the end (the paper's test sets
    /// are "taken in subsequent waves as those of training-sets").
    ///
    /// # Panics
    ///
    /// Panics if `start` is out of range.
    #[must_use]
    pub fn suffix(&self, start: usize) -> MultiLabelDataset {
        assert!(start < self.len(), "suffix start out of range");
        MultiLabelDataset {
            x: self.x[start..].to_vec(),
            y: self.y[start..].to_vec(),
            n_features: self.n_features,
            n_labels: self.n_labels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty() {
        assert_eq!(Dataset::new(vec![], vec![]), Err(MlError::EmptyDataset));
    }

    #[test]
    fn rejects_ragged() {
        let e = Dataset::new(vec![vec![1.0], vec![1.0, 2.0]], vec![true, false]).unwrap_err();
        assert!(matches!(e, MlError::RaggedFeatures { row: 1, .. }));
    }

    #[test]
    fn rejects_nan() {
        let e = Dataset::new(vec![vec![f64::NAN]], vec![true]).unwrap_err();
        assert!(matches!(e, MlError::NonFiniteFeature { row: 0, column: 0 }));
    }

    #[test]
    fn rejects_label_mismatch() {
        let e = Dataset::new(vec![vec![1.0]], vec![true, false]).unwrap_err();
        assert!(matches!(e, MlError::LabelMismatch { rows: 1, labels: 2 }));
    }

    #[test]
    fn subset_selects_rows() {
        let d = Dataset::new(
            vec![vec![0.0], vec![1.0], vec![2.0]],
            vec![false, true, false],
        )
        .unwrap();
        let s = d.subset(&[2, 0]);
        assert_eq!(s.features(0), &[2.0]);
        assert_eq!(s.features(1), &[0.0]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn multilabel_label_column() {
        let d = MultiLabelDataset::new(
            vec![vec![1.0], vec![2.0]],
            vec![vec![true, false], vec![true, true]],
        )
        .unwrap();
        assert_eq!(d.label_column(1).unwrap(), [false, true]);
        assert!(d.label_column(2).is_err());
    }

    #[test]
    fn prefix_suffix_split() {
        let d = MultiLabelDataset::new(
            (0..10).map(|i| vec![i as f64]).collect(),
            (0..10).map(|i| vec![i % 2 == 0]).collect(),
        )
        .unwrap();
        let train = d.prefix(6);
        let test = d.suffix(6);
        assert_eq!(train.len(), 6);
        assert_eq!(test.len(), 4);
        assert_eq!(test.x()[0], vec![6.0]);
    }

    #[test]
    #[should_panic(expected = "prefix length out of range")]
    fn oversized_prefix_panics() {
        let d = MultiLabelDataset::new(vec![vec![1.0]], vec![vec![true]]).unwrap();
        let _ = d.prefix(2);
    }
}
