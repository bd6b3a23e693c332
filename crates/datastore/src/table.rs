//! Tables, column families and rows.
//!
//! This is the only file that knows how rows and cells are laid out. A
//! continuous workflow asks for the cells the previous wave asked for, in
//! the same order, so a family keeps its rows in the one layout where "the
//! next row" is an index + 1 — a sorted vector — and remembers where the
//! previous lookup ended (DESIGN.md §11).

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use crate::cell::Timestamp;
use crate::value::Value;

/// Rows up to this many cells are scanned front to back; wider ones are
/// binary-searched, so a wide row is not O(cells) a lookup.
const LINEAR_SCAN_MAX: usize = 8;

/// A row: its cells' `(qualifier, timestamp, value)` in ascending qualifier
/// order.
///
/// Rows are sparse — only qualifiers that were written exist.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row {
    cells: Vec<(Box<str>, Timestamp, Value)>,
}

impl Row {
    /// Creates an empty row.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Where `qualifier`'s cell is, or where it would be inserted.
    fn find(&self, qualifier: &str) -> Result<usize, usize> {
        if self.cells.len() > LINEAR_SCAN_MAX {
            return self
                .cells
                .binary_search_by(|(q, _, _)| (**q).cmp(qualifier));
        }
        for (at, (q, _, _)) in self.cells.iter().enumerate() {
            match (**q).cmp(qualifier) {
                Ordering::Less => {}
                Ordering::Equal => return Ok(at),
                Ordering::Greater => return Err(at),
            }
        }
        Err(self.cells.len())
    }

    /// Current value under `qualifier`, if present — [`RowScan::value`] for
    /// a row read in place.
    ///
    /// [`RowScan::value`]: crate::RowScan::value
    #[must_use]
    pub fn value(&self, qualifier: &str) -> Option<&Value> {
        self.find(qualifier).ok().map(|at| &self.cells[at].2)
    }

    /// Current numeric value under `qualifier`, if present and numeric.
    #[must_use]
    pub fn f64(&self, qualifier: &str) -> Option<f64> {
        self.value(qualifier).and_then(Value::as_f64)
    }

    /// Writes `value` under `qualifier`, returning the displaced value —
    /// moved out, not copied — if the cell already existed.
    pub fn put(&mut self, qualifier: &str, value: Value, ts: Timestamp) -> Option<Value> {
        match self.find(qualifier) {
            Ok(at) => {
                let cell = &mut self.cells[at];
                cell.1 = ts;
                Some(std::mem::replace(&mut cell.2, value))
            }
            Err(at) => {
                self.cells.insert(at, (qualifier.into(), ts, value));
                None
            }
        }
    }

    /// Removes the cell under `qualifier`, returning its value.
    pub fn delete(&mut self, qualifier: &str) -> Option<Value> {
        let at = self.find(qualifier).ok()?;
        Some(self.cells.remove(at).2)
    }

    /// Iterates `(qualifier, timestamp, value)` triples in qualifier order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Timestamp, &Value)> {
        self.cells.iter().map(|(q, ts, v)| (&**q, *ts, v))
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

/// A column family: its `(row key, row)` pairs in ascending key order, and a
/// *finger* — the index the previous lookup ended at.
///
/// A lookup tries the row at the finger and the one after it before it
/// searches, so a caller that walks the family in key order (every step of a
/// continuous workflow, `from_state`, WAL replay) pays two short string
/// comparisons a row instead of a search. The finger is a hint and nothing
/// else: it is not part of the family's value (`Clone` resets it,
/// `PartialEq` ignores it), and a stale or out-of-range one only costs the
/// search it failed to save.
#[derive(Debug, Default)]
pub struct ColumnFamily {
    rows: Vec<(Box<str>, Row)>,
    // tidy:atomic(finger: relaxed): a lookup hint moved by readers under the store's read guard; it publishes nothing and any value, however stale, is only a missed shortcut
    finger: AtomicUsize,
}

impl Clone for ColumnFamily {
    fn clone(&self) -> Self {
        Self {
            rows: self.rows.clone(),
            finger: AtomicUsize::new(0),
        }
    }
}

impl PartialEq for ColumnFamily {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
    }
}

impl ColumnFamily {
    /// Creates an empty column family.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Where `key`'s row is, or where it would be inserted — the one lookup
    /// every accessor goes through. Either way the finger moves there.
    ///
    /// The two comparisons made at the finger also bound the search that
    /// follows a miss, and settle it outright when `key` falls between the
    /// two rows or past the last one (an ascending fill appends without
    /// searching).
    fn find(&self, key: &str) -> Result<usize, usize> {
        let rows = &self.rows;
        let search = |from: usize, to: usize| match rows[from..to]
            .binary_search_by(|(k, _)| (**k).cmp(key))
        {
            Ok(at) => Ok(from + at),
            Err(at) => Err(from + at),
        };
        let cmp_at = |at: usize| rows.get(at).map(|(k, _)| key.cmp(k));
        let finger = self.finger.load(Relaxed);
        let found = match cmp_at(finger) {
            Some(Ordering::Equal) => Ok(finger),
            Some(Ordering::Greater) => match cmp_at(finger + 1) {
                Some(Ordering::Equal) => Ok(finger + 1),
                Some(Ordering::Greater) => search(finger + 2, rows.len()),
                Some(Ordering::Less) | None => Err(finger + 1),
            },
            Some(Ordering::Less) => search(0, finger),
            None => search(0, rows.len()),
        };
        let (Ok(at) | Err(at)) = found;
        self.finger.store(at, Relaxed);
        found
    }

    /// The row under `key`, created empty at its place in key order if
    /// absent. A row found copies no key.
    fn row_mut(&mut self, key: &str) -> &mut Row {
        let at = match self.find(key) {
            Ok(at) => at,
            Err(at) => {
                self.rows.insert(at, (key.into(), Row::new()));
                at
            }
        };
        &mut self.rows[at].1
    }

    /// Returns the row under `key`, if present.
    #[must_use]
    pub fn row(&self, key: &str) -> Option<&Row> {
        self.find(key).ok().map(|at| &self.rows[at].1)
    }

    /// Writes `value` under `(key, qualifier)`, creating the row if absent,
    /// and returns the displaced value.
    pub fn put_cell(
        &mut self,
        key: &str,
        qualifier: &str,
        value: Value,
        ts: Timestamp,
    ) -> Option<Value> {
        self.row_mut(key).put(qualifier, value, ts)
    }

    /// Removes an entire row, returning it.
    pub fn delete_row(&mut self, key: &str) -> Option<Row> {
        let at = self.find(key).ok()?;
        Some(self.rows.remove(at).1)
    }

    /// Removes a single cell; drops the row if it becomes empty.
    pub fn delete_cell(&mut self, key: &str, qualifier: &str) -> Option<Value> {
        let at = self.find(key).ok()?;
        let row = &mut self.rows[at].1;
        let old = row.delete(qualifier);
        if row.is_empty() {
            self.rows.remove(at);
        }
        old
    }

    /// Iterates `(row key, row)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Row)> {
        self.rows.iter().map(|(k, r)| (&**k, r))
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
        self.rows.iter().map(|(_, row)| row.len()).sum()
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

    /// The layout this file had before the sorted vectors, word for word:
    /// a `BTreeMap` of rows, each a `BTreeMap` of cells. The reference the
    /// differential oracle below holds the new layout to.
    mod reference {
        use std::collections::BTreeMap;

        use crate::cell::Timestamp;
        use crate::value::Value;

        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct Row {
            cells: BTreeMap<String, (Timestamp, Value)>,
        }

        impl Row {
            pub fn put(&mut self, qualifier: &str, value: Value, ts: Timestamp) -> Option<Value> {
                match self.cells.get_mut(qualifier) {
                    Some(cell) => Some(std::mem::replace(cell, (ts, value)).1),
                    None => {
                        self.cells.insert(qualifier.to_owned(), (ts, value));
                        None
                    }
                }
            }

            pub fn delete(&mut self, qualifier: &str) -> Option<Value> {
                self.cells.remove(qualifier).map(|(_, value)| value)
            }

            pub fn iter(&self) -> impl Iterator<Item = (&str, Timestamp, &Value)> {
                self.cells.iter().map(|(q, (ts, v))| (q.as_str(), *ts, v))
            }

            pub fn len(&self) -> usize {
                self.cells.len()
            }

            pub fn is_empty(&self) -> bool {
                self.cells.is_empty()
            }
        }

        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct ColumnFamily {
            rows: BTreeMap<String, Row>,
        }

        impl ColumnFamily {
            pub fn row(&self, key: &str) -> Option<&Row> {
                self.rows.get(key)
            }

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

            pub fn delete_row(&mut self, key: &str) -> Option<Row> {
                self.rows.remove(key)
            }

            pub fn delete_cell(&mut self, key: &str, qualifier: &str) -> Option<Value> {
                let row = self.rows.get_mut(key)?;
                let old = row.delete(qualifier);
                if row.is_empty() {
                    self.rows.remove(key);
                }
                old
            }

            pub fn iter(&self) -> impl Iterator<Item = (&str, &Row)> {
                self.rows.iter().map(|(k, r)| (k.as_str(), r))
            }

            pub fn len(&self) -> usize {
                self.rows.len()
            }

            pub fn cell_count(&self) -> usize {
                self.rows.values().map(Row::len).sum()
            }
        }
    }

    mod oracle {
        use proptest::prelude::*;

        use super::super::{ColumnFamily, Row, LINEAR_SCAN_MAX};
        use super::reference;
        use crate::value::Value;

        /// Few enough rows that keys collide; enough qualifiers that a row
        /// grows past the linear scan into the binary search.
        const ROWS: usize = 10;
        const QUALIFIERS: usize = LINEAR_SCAN_MAX + 4;

        #[derive(Debug, Clone, Copy)]
        enum Kind {
            PutCell,
            DeleteCell,
            DeleteRow,
            Read,
        }

        /// One operation; `row` is what a shuffled sequence addresses, the
        /// other orders derive the row from the operation's position.
        #[derive(Debug, Clone, Copy)]
        struct Op {
            kind: Kind,
            row: usize,
            qualifier: usize,
        }

        fn ops() -> impl Strategy<Value = Vec<Op>> {
            let kind = prop_oneof![
                Just(Kind::PutCell),
                Just(Kind::PutCell),
                Just(Kind::DeleteCell),
                Just(Kind::DeleteRow),
                Just(Kind::Read),
                Just(Kind::Read),
            ];
            prop::collection::vec(
                (kind, 0..ROWS, 0..QUALIFIERS).prop_map(|(kind, row, qualifier)| Op {
                    kind,
                    row,
                    qualifier,
                }),
                1..160,
            )
        }

        /// The order the sequence walks the rows in.
        #[derive(Debug, Clone, Copy)]
        enum Walk {
            Ascending,
            Descending,
            /// Two rows far apart, turn about: every lookup misses the finger.
            Alternating,
            Shuffled,
        }

        type Listing = Vec<(String, Vec<(String, u64, Value)>)>;

        fn list_row<'a>(
            cells: impl Iterator<Item = (&'a str, u64, &'a Value)>,
        ) -> Vec<(String, u64, Value)> {
            cells
                .map(|(q, ts, v)| (q.to_owned(), ts, v.clone()))
                .collect()
        }

        fn listing(new: &ColumnFamily) -> Listing {
            new.iter()
                .map(|(k, row)| (k.to_owned(), list_row(row.iter())))
                .collect()
        }

        fn reference_listing(old: &reference::ColumnFamily) -> Listing {
            old.iter()
                .map(|(k, row)| (k.to_owned(), list_row(row.iter())))
                .collect()
        }

        fn run(ops: &[Op], walk: Walk) {
            let mut new = ColumnFamily::new();
            let mut old = reference::ColumnFamily::default();
            let key = |row: usize| format!("r{row:02}");
            let qualifier = |q: usize| format!("q{:02}", q % QUALIFIERS);
            for (at, op) in ops.iter().enumerate() {
                let row = match walk {
                    Walk::Ascending => at % ROWS,
                    Walk::Descending => ROWS - 1 - at % ROWS,
                    Walk::Alternating => [1, ROWS - 2][at % 2],
                    Walk::Shuffled => op.row,
                };
                let (key, q) = (key(row), qualifier(op.qualifier));
                let ts = at as u64 * 2 + 1;
                let value = Value::from(at as f64);
                match op.kind {
                    Kind::PutCell => assert_eq!(
                        new.put_cell(&key, &q, value.clone(), ts),
                        old.put_cell(&key, &q, value, ts),
                    ),
                    Kind::DeleteCell => {
                        assert_eq!(new.delete_cell(&key, &q), old.delete_cell(&key, &q));
                    }
                    Kind::DeleteRow => assert_eq!(
                        new.delete_row(&key).map(|row| list_row(row.iter())),
                        old.delete_row(&key).map(|row| list_row(row.iter())),
                    ),
                    Kind::Read => {}
                }
                // Reads of the row just touched (deleted, perhaps: the
                // finger now points at its successor, or past the end) and
                // of the one after it.
                for probe in [row, row + 1, op.row] {
                    let probe = format!("r{probe:02}");
                    assert_eq!(
                        new.row(&probe).map(|row| list_row(row.iter())),
                        old.row(&probe).map(|row| list_row(row.iter())),
                        "row {probe} after step {at}"
                    );
                    assert_eq!(
                        new.row(&probe)
                            .map(|row| (row.value(&q).cloned(), row.len())),
                        old.row(&probe).map(|row| (
                            row.iter().find(|c| c.0 == q).map(|c| c.2.clone()),
                            row.len()
                        )),
                    );
                }
                assert_eq!(listing(&new), reference_listing(&old), "after step {at}");
                assert_eq!(new.len(), old.len());
                assert_eq!(new.cell_count(), old.cell_count());
                assert_eq!(new.is_empty(), old.len() == 0);
            }
        }

        proptest! {
            /// The sorted vectors and their finger against the `BTreeMap`s
            /// they replaced: same return values, same iteration, same
            /// counts after every operation, whatever order the rows are
            /// asked for in.
            #[test]
            fn sorted_rows_with_a_finger_are_the_btree_maps(ops in ops()) {
                for walk in [Walk::Ascending, Walk::Descending, Walk::Alternating, Walk::Shuffled] {
                    run(&ops, walk);
                }
            }
        }

        #[test]
        fn deletes_under_and_past_the_finger() {
            let mut fam = ColumnFamily::new();
            for key in ["a", "b", "c"] {
                fam.put_cell(key, "q", Value::from(1.0), 1);
            }
            // The finger is on the last row; deleting it leaves the finger
            // past the end, and the next lookups still find what is there.
            assert!(fam.delete_row("c").is_some());
            assert!(fam.row("c").is_none());
            assert!(fam.row("a").is_some());
            // A row's last cell goes, and the row with it, under the finger.
            assert_eq!(fam.delete_cell("a", "q"), Some(Value::from(1.0)));
            assert!(fam.row("a").is_none());
            assert_eq!(fam.iter().map(|(k, _)| k).collect::<Vec<_>>(), ["b"]);
            assert_eq!(fam.put_cell("a", "q", Value::from(2.0), 2), None);
            assert_eq!(fam.iter().map(|(k, _)| k).collect::<Vec<_>>(), ["a", "b"]);
        }

        #[test]
        fn a_wide_row_is_binary_searched_and_stays_sorted() {
            let mut row = Row::new();
            let qualifiers: Vec<String> = (0..4 * LINEAR_SCAN_MAX)
                .map(|q| format!("q{q:03}"))
                .collect();
            for (at, q) in qualifiers.iter().enumerate().rev() {
                assert_eq!(row.put(q, Value::from(at as f64), at as u64), None);
            }
            let listed: Vec<&str> = row.iter().map(|(q, _, _)| q).collect();
            assert_eq!(
                listed,
                qualifiers.iter().map(String::as_str).collect::<Vec<_>>()
            );
            for (at, q) in qualifiers.iter().enumerate() {
                assert_eq!(row.f64(q), Some(at as f64));
            }
            assert_eq!(row.value("q"), None);
            assert_eq!(row.value("zzz"), None);
        }

        #[test]
        fn the_finger_is_not_part_of_a_familys_value() {
            let mut walked = ColumnFamily::new();
            for key in ["a", "b", "c"] {
                walked.put_cell(key, "q", Value::from(1.0), 1);
            }
            let fresh = walked.clone();
            assert!(walked.row("b").is_some());
            assert_eq!(walked, fresh);
        }
    }
}
