//! Store error types.

use std::error::Error;
use std::fmt;

/// Errors returned by [`DataStore`] operations.
///
/// [`DataStore`]: crate::DataStore
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The named table does not exist.
    TableNotFound(String),
    /// The named table already exists.
    TableExists(String),
    /// The named column family does not exist in the table.
    FamilyNotFound {
        /// Table that was addressed.
        table: String,
        /// Family that was missing.
        family: String,
    },
    /// The named column family already exists in the table.
    FamilyExists {
        /// Table that was addressed.
        table: String,
        /// Family that already exists.
        family: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::TableNotFound(t) => write!(f, "table `{t}` not found"),
            StoreError::TableExists(t) => write!(f, "table `{t}` already exists"),
            StoreError::FamilyNotFound { table, family } => {
                write!(f, "column family `{family}` not found in table `{table}`")
            }
            StoreError::FamilyExists { table, family } => {
                write!(
                    f,
                    "column family `{family}` already exists in table `{table}`"
                )
            }
        }
    }
}

impl Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            StoreError::TableNotFound("x".into()).to_string(),
            "table `x` not found"
        );
        assert_eq!(
            StoreError::FamilyNotFound {
                table: "t".into(),
                family: "f".into()
            }
            .to_string(),
            "column family `f` not found in table `t`"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StoreError>();
    }
}
