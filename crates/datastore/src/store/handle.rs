//! A family resolved once: the store's operations minus the name lookup.

use super::{DataStore, FamilyAddr};
use crate::error::StoreError;
use crate::value::Value;

/// One column family of a [`DataStore`], resolved by
/// [`DataStore::family`]: the loop-friendly form of the string-addressed
/// writes, for the step that writes hundreds of cells of one family.
///
/// Every call but [`put_many`](Self::put_many) is the string-addressed call
/// of the same name without the two name lookups — same routine, same guard
/// taken and released per call, same clock tick and change-set fold inside
/// the write guard, same [`WriteRef`](crate::WriteRef) handed to the same
/// observers after the guard is gone; `put_many` is that many `put`s under
/// one guard. A handle holds **no** guard between calls, and two handles
/// never deadlock each other. A step reads through one
/// [`DataStore::read`] scope first, then writes through handles.
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
/// let rows = ["veh-0", "veh-1", "veh-2"];
/// let cells = (0..3)
///     .map(|v| (rows[v], "speed", Value::from(60.0 + v as f64)))
///     .collect();
/// positions.put_many(cells)?;
/// positions.delete("veh-2", "speed")?;
/// assert_eq!(store.get("lrb", "positions", "veh-1", "speed")?, Some(Value::from(61.0)));
/// assert_eq!(store.get("lrb", "positions", "veh-2", "speed")?, None);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FamilyHandle<'a> {
    pub(crate) store: &'a DataStore,
    /// Always slot-addressed.
    pub(crate) at: FamilyAddr<'a>,
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

    /// Writes a batch of cells the caller has built — `(row, qualifier,
    /// value)`, in any rows, applied in the given order — under **one**
    /// write guard, so a reader sees all of them or none. In every other
    /// respect it is `cells.len()` [`put`](Self::put)s in that order:
    /// consecutive timestamps, each folded into the change sets in turn,
    /// one [`WriteRef`](crate::WriteRef) each — in order, after the guard
    /// is gone — and as many operations reported to op observers. The
    /// displaced values are dropped.
    ///
    /// The step that writes a family once per execution reads what it needs
    /// first, then builds `cells`: nothing of the caller's runs under the
    /// guard.
    ///
    /// # Errors
    ///
    /// None today; see [`put`](Self::put).
    pub fn put_many(&self, cells: Vec<(&str, &str, Value)>) -> Result<(), StoreError> {
        self.store.put_many_at(&self.at, cells)
    }

    /// Deletes the cell under `(row, qualifier)`; see [`DataStore::delete`].
    ///
    /// # Errors
    ///
    /// None today; see [`put`](Self::put).
    pub fn delete(&self, row: &str, qualifier: &str) -> Result<Option<Value>, StoreError> {
        self.store.delete_at(&self.at, row, qualifier)
    }
}
