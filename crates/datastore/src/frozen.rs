//! Write-ahead-log replay, fenced off: kept only because the store-level
//! WAL (`smartflux-durability`'s `frozen` module) replays through it, and
//! that log is kept only for the frozen benchmark (`benchmark/`) until its
//! re-baseline (ROADMAP item 3). Every public item is `#[deprecated]`.
//!
//! What cannot move here: the `CellState.versions` field, which the
//! benchmark reads by name (`benchmark/src/common.rs`), and
//! [`DataStore::shard_stats`], which a session publishes to `/metrics`.

#![allow(deprecated)]

use crate::cell::Timestamp;
use crate::error::StoreError;
use crate::store::{DataStore, FamilyHandle};
use crate::table::ColumnFamily;
use crate::value::Value;

impl DataStore {
    /// Writes a cell with an explicit timestamp, without advancing the
    /// clock or notifying observers: replays a logged `put` exactly as it
    /// originally happened.
    ///
    /// # Errors
    ///
    /// Returns an error if the table or family does not exist.
    #[deprecated(note = "kept only for benchmark/ until its re-baseline, ROADMAP item 3")]
    pub fn apply_put(
        &self,
        table: &str,
        family: &str,
        row: &str,
        qualifier: &str,
        value: Value,
        ts: Timestamp,
    ) -> Result<(), StoreError> {
        self.family(table, family)?
            .apply_put(row, qualifier, value, ts)
    }

    /// Deletes a cell without advancing the clock or notifying observers:
    /// replays a logged `delete`. Deleting an absent cell is not an error
    /// (mirrors [`delete`](Self::delete)).
    ///
    /// # Errors
    ///
    /// Returns an error if the table or family does not exist.
    #[deprecated(note = "kept only for benchmark/ until its re-baseline, ROADMAP item 3")]
    pub fn apply_delete(
        &self,
        table: &str,
        family: &str,
        row: &str,
        qualifier: &str,
    ) -> Result<(), StoreError> {
        self.family(table, family)?.apply_delete(row, qualifier)
    }
}

impl FamilyHandle<'_> {
    /// [`DataStore::apply_put`] for a run of logged writes to one family.
    ///
    /// # Errors
    ///
    /// None today; see [`put`](Self::put).
    #[deprecated(note = "kept only for benchmark/ until its re-baseline, ROADMAP item 3")]
    pub fn apply_put(
        &self,
        row: &str,
        qualifier: &str,
        value: Value,
        ts: Timestamp,
    ) -> Result<(), StoreError> {
        self.apply(|family| family.put_cell(row, qualifier, value, ts));
        Ok(())
    }

    /// [`DataStore::apply_delete`] for a run of logged deletes in one
    /// family.
    ///
    /// # Errors
    ///
    /// None today; see [`put`](Self::put).
    #[deprecated(note = "kept only for benchmark/ until its re-baseline, ROADMAP item 3")]
    pub fn apply_delete(&self, row: &str, qualifier: &str) -> Result<(), StoreError> {
        self.apply(|family| family.delete_cell(row, qualifier));
        Ok(())
    }

    /// Runs `op` on the family under the write guard, without a clock tick,
    /// a change-set fold or a notification. A handle's family always
    /// resolves: no family is ever removed.
    fn apply(&self, op: impl FnOnce(&mut ColumnFamily) -> Option<Value>) {
        if let Some((mut data, slot)) = self.store.write_at(&self.at) {
            op(&mut data.families[slot]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_put_and_delete_are_silent_and_clock_neutral() {
        let s = DataStore::new();
        s.create_table("t").unwrap();
        s.create_family("t", "f").unwrap();
        s.register_observer(std::sync::Arc::new(|_: &crate::WriteEvent| {
            panic!("notified")
        }));
        s.apply_put("t", "f", "r", "q", Value::from(1.0), 7)
            .unwrap();
        assert_eq!(s.get("t", "f", "r", "q").unwrap(), Some(Value::from(1.0)));
        s.family("t", "f").unwrap().apply_delete("r", "q").unwrap();
        assert_eq!(s.get("t", "f", "r", "q").unwrap(), None);
        assert_eq!(s.clock(), 0);
        assert!(s.apply_delete("t", "nope", "r", "q").is_err());
    }
}
