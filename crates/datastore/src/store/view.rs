//! A read scope: one read guard for every read a step makes.

use std::cell::Cell;
use std::fmt;

use super::{addr, Tables};
use crate::error::StoreError;
use crate::observer::OpKind;
use crate::table::{ColumnFamily, Row};
use crate::value::Value;

/// The store as one [`DataStore::read`](crate::DataStore::read) scope sees
/// it: every family, resolved by name under the one read guard the scope
/// holds, read in place.
///
/// The scope counts what it reads — one get per cell, one scan per
/// [`rows`](FamilyView::rows) walk — and the store reports those operations
/// to op observers once the guard is gone, as it would the same reads made
/// one call at a time.
pub struct StoreView<'g> {
    tables: &'g Tables,
    counts: Counts,
}

/// Reads made in a scope, by kind.
#[derive(Debug, Default)]
struct Counts {
    gets: Cell<usize>,
    scans: Cell<usize>,
}

fn bump(counter: &Cell<usize>) {
    counter.set(counter.get() + 1);
}

impl<'g> StoreView<'g> {
    pub(super) fn new(tables: &'g Tables) -> Self {
        Self {
            tables,
            counts: Counts::default(),
        }
    }

    /// The reads made so far, as the operations op observers hear of.
    pub(super) fn ops(&self) -> [(OpKind, usize); 2] {
        [
            (OpKind::Get, self.counts.gets.get()),
            (OpKind::Scan, self.counts.scans.get()),
        ]
    }

    /// The family `(table, family)`, resolved under the scope's guard.
    ///
    /// # Errors
    ///
    /// The error [`DataStore::family`](crate::DataStore::family) returns
    /// when the table or the family does not exist.
    pub fn family(&self, table: &str, family: &str) -> Result<FamilyView<'_>, StoreError> {
        let at = addr(table, family);
        match self.tables.slot(&at) {
            Some(slot) => Ok(FamilyView {
                family: &self.tables.families[slot],
                counts: &self.counts,
            }),
            None => Err(self.tables.missing(&at)),
        }
    }
}

impl fmt::Debug for StoreView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StoreView")
            .field("counts", &self.counts)
            .finish_non_exhaustive()
    }
}

/// One column family inside a read scope: cells and rows borrowed in place,
/// for as long as the scope lasts.
#[derive(Debug, Clone, Copy)]
pub struct FamilyView<'v> {
    family: &'v ColumnFamily,
    counts: &'v Counts,
}

impl<'v> FamilyView<'v> {
    /// The current value of a cell — one get.
    #[must_use]
    pub fn get(&self, row: &str, qualifier: &str) -> Option<&'v Value> {
        self.row(row).value(qualifier)
    }

    /// A cell as a number: `None` when it is absent or not numeric — one
    /// get.
    #[must_use]
    pub fn get_f64(&self, row: &str, qualifier: &str) -> Option<f64> {
        self.get(row, qualifier).and_then(Value::as_f64)
    }

    /// The row under `key`, looked up once for the cells read from it; each
    /// of those is one get. An absent row reads as all-absent cells.
    #[must_use]
    pub fn row(&self, key: &str) -> RowView<'v> {
        RowView {
            row: self.family.row(key),
            counts: self.counts,
        }
    }

    /// Every row, in key order — one scan.
    pub fn rows(&self) -> impl Iterator<Item = (&'v str, &'v Row)> {
        let family = self.family;
        bump(&self.counts.scans);
        family.iter()
    }
}

/// One row of a [`FamilyView`], found once: each cell read from it is one
/// get.
#[derive(Debug, Clone, Copy)]
pub struct RowView<'v> {
    row: Option<&'v Row>,
    counts: &'v Counts,
}

impl<'v> RowView<'v> {
    /// The current value under `qualifier` — one get.
    #[must_use]
    pub fn value(&self, qualifier: &str) -> Option<&'v Value> {
        bump(&self.counts.gets);
        self.row?.value(qualifier)
    }

    /// The cell under `qualifier` as a number: `None` when it is absent or
    /// not numeric — one get.
    #[must_use]
    pub fn f64(&self, qualifier: &str) -> Option<f64> {
        self.value(qualifier).and_then(Value::as_f64)
    }
}
