//! Tables, column families and rows.

use std::collections::BTreeMap;

use crate::cell::Timestamp;
use crate::value::Value;

/// A row: a sorted map from column qualifier to the cell's current
/// `(timestamp, value)`.
///
/// Rows are sparse — only qualifiers that were written exist.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row {
    cells: BTreeMap<String, (Timestamp, Value)>,
}

impl Row {
    /// Creates an empty row.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current value under `qualifier`, if present — [`RowScan::value`] for
    /// a row read in place.
    ///
    /// [`RowScan::value`]: crate::RowScan::value
    #[must_use]
    pub fn value(&self, qualifier: &str) -> Option<&Value> {
        self.cells.get(qualifier).map(|(_, value)| value)
    }

    /// Current numeric value under `qualifier`, if present and numeric.
    #[must_use]
    pub fn f64(&self, qualifier: &str) -> Option<f64> {
        self.value(qualifier).and_then(Value::as_f64)
    }

    /// Writes `value` under `qualifier`, returning the displaced value —
    /// moved out, not copied — if the cell already existed.
    pub fn put(&mut self, qualifier: &str, value: Value, ts: Timestamp) -> Option<Value> {
        match self.cells.get_mut(qualifier) {
            Some(cell) => Some(std::mem::replace(cell, (ts, value)).1),
            None => {
                self.cells.insert(qualifier.to_owned(), (ts, value));
                None
            }
        }
    }

    /// Removes the cell under `qualifier`, returning its value.
    pub fn delete(&mut self, qualifier: &str) -> Option<Value> {
        self.cells.remove(qualifier).map(|(_, value)| value)
    }

    /// Iterates `(qualifier, timestamp, value)` triples in qualifier order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Timestamp, &Value)> {
        self.cells.iter().map(|(q, (ts, v))| (q.as_str(), *ts, v))
    }

    /// Number of populated cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Returns `true` if the row holds no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// A column family: a sorted map from row key to [`Row`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnFamily {
    rows: BTreeMap<String, Row>,
}

impl ColumnFamily {
    /// Creates an empty column family.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the row under `key`, if present.
    #[must_use]
    pub fn row(&self, key: &str) -> Option<&Row> {
        self.rows.get(key)
    }

    /// Writes `value` under `(key, qualifier)`, creating the row if absent,
    /// and returns the displaced value.
    ///
    /// Looks the row up before inserting, so a write to an existing row
    /// copies no key.
    pub fn put_cell(
        &mut self,
        key: &str,
        qualifier: &str,
        value: Value,
        ts: Timestamp,
    ) -> Option<Value> {
        if let Some(row) = self.rows.get_mut(key) {
            return row.put(qualifier, value, ts);
        }
        self.rows
            .entry(key.to_owned())
            .or_default()
            .put(qualifier, value, ts)
    }

    /// Writes `cells` — `(qualifier, value)` pairs, applied in order — into
    /// the row under `key`, creating it if absent: the first at `first_ts`,
    /// each next one a timestamp later. Returns the displaced values.
    ///
    /// One row lookup for all of them, made before inserting as in
    /// [`put_cell`](Self::put_cell).
    pub fn put_cells<const N: usize>(
        &mut self,
        key: &str,
        cells: [(&str, Value); N],
        first_ts: Timestamp,
    ) -> [Option<Value>; N] {
        let mut ts = first_ts;
        let put = |row: &mut Row| {
            cells.map(|(qualifier, value)| {
                let old = row.put(qualifier, value, ts);
                ts += 1;
                old
            })
        };
        if let Some(row) = self.rows.get_mut(key) {
            return put(row);
        }
        put(self.rows.entry(key.to_owned()).or_default())
    }

    /// Removes an entire row, returning it.
    pub fn delete_row(&mut self, key: &str) -> Option<Row> {
        self.rows.remove(key)
    }

    /// Removes a single cell; drops the row if it becomes empty.
    pub fn delete_cell(&mut self, key: &str, qualifier: &str) -> Option<Value> {
        let row = self.rows.get_mut(key)?;
        let old = row.delete(qualifier);
        if row.is_empty() {
            self.rows.remove(key);
        }
        old
    }

    /// Iterates `(row key, row)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Row)> {
        self.rows.iter().map(|(k, r)| (k.as_str(), r))
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the family holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total number of populated cells across all rows.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.rows.values().map(Row::len).sum()
    }
}

/// A table: a set of named column families.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    families: BTreeMap<String, ColumnFamily>,
}

impl Table {
    /// Creates a table with no column families.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the family named `name`, if present.
    #[must_use]
    pub fn family(&self, name: &str) -> Option<&ColumnFamily> {
        self.families.get(name)
    }

    /// Returns the family named `name` mutably, if present.
    pub fn family_mut(&mut self, name: &str) -> Option<&mut ColumnFamily> {
        self.families.get_mut(name)
    }

    /// Adds an empty family; returns `false` if it already existed.
    pub fn add_family(&mut self, name: &str) -> bool {
        if self.families.contains_key(name) {
            return false;
        }
        self.families.insert(name.to_owned(), ColumnFamily::new());
        true
    }

    /// Returns `true` if a family named `name` exists.
    #[must_use]
    pub fn has_family(&self, name: &str) -> bool {
        self.families.contains_key(name)
    }

    /// Iterates `(family name, family)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ColumnFamily)> {
        self.families.iter().map(|(n, f)| (n.as_str(), f))
    }

    /// Names of all column families, in order.
    #[must_use]
    pub fn family_names(&self) -> Vec<&str> {
        self.families.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_put_returns_old_value() {
        let mut row = Row::new();
        assert_eq!(row.put("q", Value::from(1.0), 1), None);
        assert_eq!(row.put("q", Value::from(2.0), 2), Some(Value::from(1.0)));
        assert_eq!(
            row.iter().collect::<Vec<_>>(),
            [("q", 2, &Value::from(2.0))]
        );
    }

    #[test]
    fn family_put_cell_returns_the_displaced_value() {
        let mut fam = ColumnFamily::new();
        assert_eq!(fam.put_cell("r", "q", Value::from(1.0), 1), None);
        assert_eq!(
            fam.put_cell("r", "q", Value::from(2.0), 2),
            Some(Value::from(1.0))
        );
        assert_eq!(fam.put_cell("r", "q2", Value::from(3.0), 3), None);
        assert_eq!(fam.len(), 1);
        assert_eq!(fam.cell_count(), 2);
    }

    #[test]
    fn family_put_cells_is_put_cell_in_order_with_consecutive_timestamps() {
        let mut by_row = ColumnFamily::new();
        let olds = by_row.put_cells(
            "r",
            [
                ("a", Value::from(1.0)),
                ("b", Value::from(2.0)),
                ("a", Value::from(3.0)),
            ],
            7,
        );
        assert_eq!(olds, [None, None, Some(Value::from(1.0))]);
        let mut by_cell = ColumnFamily::new();
        by_cell.put_cell("r", "a", Value::from(1.0), 7);
        by_cell.put_cell("r", "b", Value::from(2.0), 8);
        by_cell.put_cell("r", "a", Value::from(3.0), 9);
        assert_eq!(by_row, by_cell);
    }

    #[test]
    fn family_delete_cell_drops_empty_row() {
        let mut fam = ColumnFamily::new();
        fam.put_cell("r", "q", Value::from(1.0), 1);
        assert_eq!(fam.len(), 1);
        assert_eq!(fam.delete_cell("r", "q"), Some(Value::from(1.0)));
        assert!(fam.is_empty());
        assert_eq!(fam.delete_cell("r", "q"), None);
    }

    #[test]
    fn family_cell_count_sums_rows() {
        let mut fam = ColumnFamily::new();
        fam.put_cell("a", "q1", Value::from(1.0), 1);
        fam.put_cell("a", "q2", Value::from(1.0), 1);
        fam.put_cell("b", "q1", Value::from(1.0), 1);
        assert_eq!(fam.cell_count(), 3);
    }

    #[test]
    fn table_add_family_idempotence() {
        let mut t = Table::new();
        assert!(t.add_family("f"));
        assert!(!t.add_family("f"));
        assert!(t.has_family("f"));
        assert_eq!(t.family_names(), vec!["f"]);
    }

    #[test]
    fn rows_iterate_in_key_order() {
        let mut fam = ColumnFamily::new();
        for k in ["b", "a", "c"] {
            fam.put_cell(k, "q", Value::from(0.0), 0);
        }
        let keys: Vec<&str> = fam.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b", "c"]);
    }
}
