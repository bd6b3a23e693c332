//! Typed cell values.

use std::fmt;

/// A value stored in a cell.
///
/// The store is schemaless: any slot can hold any variant. Numeric variants
/// participate in magnitude-based diffing (used by the SmartFlux impact and
/// error functions); non-numeric variants diff by equality only.
///
/// # Example
///
/// ```
/// use smartflux_datastore::Value;
///
/// let v = Value::from(3.5);
/// assert_eq!(v.as_f64(), Some(3.5));
/// assert_eq!(Value::from("high").as_f64(), None);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A 64-bit floating point value.
    F64(f64),
    /// A 64-bit signed integer value.
    I64(i64),
    /// A UTF-8 text value.
    Text(String),
    /// An uninterpreted byte array (the native HBase cell type).
    Bytes(Vec<u8>),
}

impl Value {
    /// Returns the numeric magnitude of this value, if it has one.
    ///
    /// `F64` and `I64` values return their numeric value; text and byte
    /// values return `None` and are treated as categorical by the metric
    /// functions.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::I64(v) => Some(*v as f64),
            Value::Text(_) | Value::Bytes(_) => None,
        }
    }

    /// Returns the text content, if this is a `Text` value.
    #[must_use]
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the byte content, if this is a `Bytes` value.
    #[must_use]
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Absolute numeric difference between two values.
    ///
    /// Numeric pairs return `|a - b|`. Mixed or non-numeric pairs return
    /// `0.0` when equal and `1.0` when different, so categorical updates
    /// still register as unit-magnitude changes in the impact metrics.
    #[must_use]
    pub fn abs_diff(&self, other: &Value) -> f64 {
        match (self.as_f64(), other.as_f64()) {
            (Some(a), Some(b)) => (a - b).abs(),
            _ => {
                if self == other {
                    0.0
                } else {
                    1.0
                }
            }
        }
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::F64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::Text(s) => f.write_str(s),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_conversions() {
        assert_eq!(Value::from(2.0).as_f64(), Some(2.0));
        assert_eq!(Value::from(7i64).as_f64(), Some(7.0));
    }

    #[test]
    fn abs_diff_numeric() {
        assert_eq!(Value::from(5.0).abs_diff(&Value::from(3.0)), 2.0);
        assert_eq!(Value::from(3i64).abs_diff(&Value::from(5.0)), 2.0);
    }

    #[test]
    fn abs_diff_categorical() {
        assert_eq!(Value::from("a").abs_diff(&Value::from("a")), 0.0);
        assert_eq!(Value::from("a").abs_diff(&Value::from("b")), 1.0);
        // Mixed numeric/text counts as a unit change.
        assert_eq!(Value::from(1.0).abs_diff(&Value::from("1")), 1.0);
    }

    #[test]
    fn display_is_nonempty() {
        for v in [
            Value::from(1.5),
            Value::from(2i64),
            Value::from("hi"),
            Value::from(vec![1u8, 2]),
        ] {
            assert!(!v.to_string().is_empty());
        }
    }
}
