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
}
