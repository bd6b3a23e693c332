//! ML error types.

use std::error::Error;
use std::fmt;

/// Errors raised by dataset construction and model training.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MlError {
    /// The dataset has no rows.
    EmptyDataset,
    /// Rows have inconsistent numbers of features.
    RaggedFeatures {
        /// Feature count of the first row.
        expected: usize,
        /// Feature count of the offending row.
        found: usize,
        /// Index of the offending row.
        row: usize,
    },
    /// Feature and label counts differ.
    LabelMismatch {
        /// Number of feature rows.
        rows: usize,
        /// Number of labels.
        labels: usize,
    },
    /// A feature value is NaN or infinite.
    NonFiniteFeature {
        /// Row of the offending value.
        row: usize,
        /// Column of the offending value.
        column: usize,
    },
    /// An operation requires a fitted model but none was trained.
    NotFitted,
    /// An invalid hyper-parameter was supplied.
    InvalidParameter(String),
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::EmptyDataset => f.write_str("dataset has no rows"),
            MlError::RaggedFeatures {
                expected,
                found,
                row,
            } => write!(f, "row {row} has {found} features, expected {expected}"),
            MlError::LabelMismatch { rows, labels } => {
                write!(f, "{rows} feature rows but {labels} labels")
            }
            MlError::NonFiniteFeature { row, column } => {
                write!(f, "non-finite feature at row {row}, column {column}")
            }
            MlError::NotFitted => f.write_str("model has not been fitted"),
            MlError::InvalidParameter(p) => write!(f, "invalid parameter: {p}"),
        }
    }
}

impl Error for MlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(MlError::EmptyDataset.to_string(), "dataset has no rows");
        assert_eq!(
            MlError::LabelMismatch { rows: 3, labels: 2 }.to_string(),
            "3 feature rows but 2 labels"
        );
    }

    #[test]
    fn is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MlError>();
    }
}
