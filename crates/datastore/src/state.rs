//! Plain-data export of a store's full contents.
//!
//! [`StoreState`] is the bridge between the in-memory store and the
//! durability subsystem: `DataStore::export_state` captures everything a
//! checkpoint needs (tables, families, every cell's current pair, the logical
//! clock), and `DataStore::from_state` reconstructs an identical store
//! during recovery. The types are deliberately dumb — no interior
//! mutability, no locks — so a checkpoint codec can walk them without
//! holding any store lock.

use crate::cell::Timestamp;
use crate::value::Value;

/// A complete, detached copy of a [`DataStore`]'s contents.
///
/// [`DataStore`]: crate::DataStore
#[derive(Debug, Clone, PartialEq)]
pub struct StoreState {
    /// Logical clock at capture time (timestamp of the most recent write).
    pub clock: Timestamp,
    /// All tables, in name order.
    pub tables: Vec<TableState>,
}

/// One table's contents within a [`StoreState`].
#[derive(Debug, Clone, PartialEq)]
pub struct TableState {
    /// Table name.
    pub name: String,
    /// All column families, in name order.
    pub families: Vec<FamilyState>,
}

/// One column family's contents within a [`TableState`].
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyState {
    /// Family name.
    pub name: String,
    /// All populated cells, in `(row, qualifier)` order.
    pub cells: Vec<CellState>,
}

/// One cell within a [`FamilyState`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellState {
    /// Row key.
    pub row: String,
    /// Column qualifier.
    pub qualifier: String,
    /// The cell's `(timestamp, value)` — an array of one, so a cell without
    /// a pair cannot be built; the field's name is the one `benchmark/` reads.
    pub versions: [(Timestamp, Value); 1],
}
