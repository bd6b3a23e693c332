//! An in-memory, columnar key-value store with write observation.
//!
//! This crate is the storage substrate of the SmartFlux reproduction. It plays
//! the role HBase plays in the paper: workflow processing steps communicate
//! exclusively through *data containers* held in this store, and the SmartFlux
//! middleware observes every mutation to compute input-impact and output-error
//! metrics.
//!
//! # Data model
//!
//! The store follows the BigTable/HBase model: a [`DataStore`] holds named
//! tables; each table holds named *column families*; each family maps a
//! row key to a set of *column qualifiers*; each `(row, qualifier)` slot is a
//! cell holding its current [`Value`] and the [`Timestamp`] of the write that
//! put it there. The paper keeps the previous state next to the current one
//! so SmartFlux can diff them without extra reads (§4.2); here the previous
//! value travels with the write instead — an overwrite moves it out of the
//! cell into the [`WriteRef`]'s `old` — and whoever needs "the state at my
//! last execution" keeps it from there.
//!
//! # Containers
//!
//! A [`ContainerRef`] names a subset of the store — a whole family or a single
//! qualifier column — and is the unit to which Quality-of-Data bounds attach.
//!
//! # Observation
//!
//! SmartFlux's Monitoring runs inside the write path, the way an HBase
//! co-processor does: a client opens a [`WatchList`], watches containers
//! and opens change sets over them ([`DataStore::watch`]), and every write
//! is folded into them under the write guard, with the displaced value in
//! hand — for each cell written since a set's mark, the value at the mark
//! and the latest one.
//!
//! Every mutation is also reported to registered [`WriteObserver`]s as a
//! [`WriteRef`] — a borrowed view carrying the old and new value, copied
//! into an owned [`WriteEvent`] only for observers that keep it
//! (recorders, tests).
//!
//! # Concurrency
//!
//! The store is one reader-writer lock over all of its tables, with a
//! single atomic logical clock, ticked inside the write guard, ordering all
//! writes. Every operation takes the guard once; change sets are folded
//! under it, and observers run after it is released, so they may call back
//! into the store. The closures that [`DataStore::read`],
//! [`DataStore::fold_cells`] and [`DataStore::stream_changes`] take run
//! *under* the guard and must not: a write from inside one deadlocks.
//! [`DataStore::shard_stats`] exposes the lock's contention counters. See
//! `DESIGN.md` §11 for the full model.
//!
//! # Reading and writing a step's families
//!
//! Every one-shot operation is addressed by `(table, family)` names,
//! HBase-client style, and takes the guard once. A step reads everything
//! it needs inside one [`DataStore::read`] scope — one read guard, any
//! family resolved by name under it, cells and rows read in place through
//! a [`FamilyView`] — and then writes. It resolves each family it writes
//! once with [`DataStore::family`]: the [`FamilyHandle`]'s `put` / `delete`
//! are the one-shots minus the name lookup, and its `put_many` writes a
//! step's cells of the family, built beforehand, under one guard: the same
//! ticks, folds and [`WriteRef`]s as that many `put`s in order, for one
//! lock round trip (`DESIGN.md` §11 "Family handles").
//!
//! # Example
//!
//! ```
//! use smartflux_datastore::{DataStore, ContainerRef, Value};
//!
//! # fn main() -> Result<(), smartflux_datastore::StoreError> {
//! let store = DataStore::new();
//! store.create_table("forest")?;
//! store.create_family("forest", "sensors")?;
//!
//! store.put("forest", "sensors", "s-001", "temperature", Value::from(24.5))?;
//! let cell = store.get("forest", "sensors", "s-001", "temperature")?;
//! assert_eq!(cell.unwrap().as_f64(), Some(24.5));
//!
//! let container = ContainerRef::family("forest", "sensors");
//! assert_eq!(store.snapshot(&container)?.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod container;
mod error;
mod frozen;
mod observer;
mod scan;
mod snapshot;
mod state;
mod store;
mod table;
mod value;

pub use cell::Timestamp;
pub use container::ContainerRef;
pub use error::StoreError;
// The deprecated op-observer surface the benchmark still spells. A glob,
// so this line names no deprecated item; each user of one gets the warning.
pub use frozen::*;
pub use observer::{ObserverHandle, OpKind, WriteEvent, WriteKind, WriteObserver, WriteRef};
pub use scan::{RowScan, ScanFilter};
pub use snapshot::{SlotChange, Snapshot, SnapshotDiff};
pub use state::{CellState, FamilyState, StoreState, TableState};
pub use store::{DataStore, FamilyHandle, FamilyView, RowView, ShardStats, StoreView, WatchList};
pub use table::{ColumnFamily, Row};
pub use value::Value;
