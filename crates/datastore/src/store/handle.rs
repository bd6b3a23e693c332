//! A family resolved once: the store's operations minus the name lookup.

use super::{DataStore, FamilyAddr};
use crate::cell::Timestamp;
use crate::error::StoreError;
use crate::table::Row;
use crate::value::Value;

/// One column family of a [`DataStore`], resolved by
/// [`DataStore::family`]: the loop-friendly form of the string-addressed
/// calls, for the step that reads or writes hundreds of cells of one family
/// in a row.
///
/// Every call is the string-addressed call of the same name without the
/// two name lookups — same routine, same guard taken and released per call,
/// same clock tick and change-set fold inside the write guard, same
/// [`WriteRef`](crate::WriteRef) handed to the same observers after the
/// guard is gone. A handle holds **no** guard between calls, so a step may
/// read and write one family through it in a single loop, and two handles
/// never deadlock each other.
///
/// The handle borrows the store and the two names, owns nothing, and is
/// meant to live for one step execution, not to be stored.
///
/// # Example
///
/// ```
/// use smartflux_datastore::{DataStore, Value};
///
/// # fn main() -> Result<(), smartflux_datastore::StoreError> {
/// let store = DataStore::new();
/// store.create_table("lrb")?;
/// store.create_family("lrb", "positions")?;
///
/// let positions = store.family("lrb", "positions")?;
/// for v in 0..3 {
///     positions.put(&format!("veh-{v}"), "speed", Value::from(60.0 + f64::from(v)))?;
/// }
/// let mut sum = 0.0;
/// positions.for_each_row(|_key, row| {
///     sum += row.f64("speed").unwrap_or(0.0);
/// })?;
/// assert_eq!(sum, 183.0);
/// assert_eq!(positions.get_f64("veh-1", "speed")?, Some(61.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FamilyHandle<'a> {
    store: &'a DataStore,
    /// Always slot-addressed.
    at: FamilyAddr<'a>,
}

impl<'a> FamilyHandle<'a> {
    pub(super) fn new(store: &'a DataStore, at: FamilyAddr<'a>) -> Self {
        Self { store, at }
    }

    /// Writes `value` under `(row, qualifier)`; see [`DataStore::put`].
    ///
    /// # Errors
    ///
    /// None today — the family was found when the handle was built and
    /// families are never dropped. Fallible like the string-addressed form
    /// so moving a loop onto a handle changes no control flow.
    pub fn put(
        &self,
        row: &str,
        qualifier: &str,
        value: Value,
    ) -> Result<Option<Value>, StoreError> {
        self.store.put_at(&self.at, row, qualifier, value)
    }

    /// Writes several cells of one row — HBase's row-scoped `Put`: `cells`
    /// are `(qualifier, value)` pairs, applied in order under **one** write
    /// guard after one row lookup, so a reader sees all of them or none.
    /// In every other respect it is `cells.len()` [`put`](Self::put)s:
    /// consecutive timestamps, one [`WriteRef`](crate::WriteRef) each — in
    /// order, after the guard is gone — and as many operations reported to
    /// op observers.
    /// Returns the displaced values.
    ///
    /// # Errors
    ///
    /// None today; see [`put`](Self::put).
    pub fn put_row<const N: usize>(
        &self,
        row: &str,
        cells: [(&str, Value); N],
    ) -> Result<[Option<Value>; N], StoreError> {
        self.store.put_row_at(&self.at, row, cells)
    }

    /// Deletes the cell under `(row, qualifier)`; see [`DataStore::delete`].
    ///
    /// # Errors
    ///
    /// None today; see [`put`](Self::put).
    pub fn delete(&self, row: &str, qualifier: &str) -> Result<Option<Value>, StoreError> {
        self.store.delete_at(&self.at, row, qualifier)
    }

    /// Reads the current value of a cell; see [`DataStore::get`].
    ///
    /// # Errors
    ///
    /// None today; see [`put`](Self::put).
    pub fn get(&self, row: &str, qualifier: &str) -> Result<Option<Value>, StoreError> {
        self.store
            .read_cell(&self.at, row, qualifier, |v| v.cloned())
    }

    /// Reads a cell as a number, in place: `None` when the cell is absent
    /// or not numeric. One `get` that copies nothing.
    ///
    /// # Errors
    ///
    /// None today; see [`put`](Self::put).
    pub fn get_f64(&self, row: &str, qualifier: &str) -> Result<Option<f64>, StoreError> {
        self.store
            .read_cell(&self.at, row, qualifier, |v| v.and_then(Value::as_f64))
    }

    /// Visits every row of the family in key order without copying a key
    /// or a value — one scan.
    ///
    /// `f` runs under the store's read guard, so it must not call back into
    /// the store, through this handle or any other way: a write from inside
    /// it deadlocks every time, and so does a read whenever a writer is
    /// waiting for the lock.
    ///
    /// # Errors
    ///
    /// None today; see [`put`](Self::put).
    pub fn for_each_row(&self, f: impl FnMut(&str, &Row)) -> Result<(), StoreError> {
        self.store.visit_rows(&self.at, f)
    }

    /// Recovery support: [`DataStore::apply_put`] for a run of logged
    /// writes to one family.
    ///
    /// # Errors
    ///
    /// None today; see [`put`](Self::put).
    pub fn apply_put(
        &self,
        row: &str,
        qualifier: &str,
        value: Value,
        ts: Timestamp,
    ) -> Result<(), StoreError> {
        self.store.apply_put_at(&self.at, row, qualifier, value, ts)
    }

    /// Recovery support: [`DataStore::apply_delete`] for a run of logged
    /// deletes in one family.
    ///
    /// # Errors
    ///
    /// None today; see [`put`](Self::put).
    pub fn apply_delete(&self, row: &str, qualifier: &str) -> Result<(), StoreError> {
        self.store.apply_delete_at(&self.at, row, qualifier)
    }
}
