//! The store facade.
//!
//! # Concurrency model
//!
//! The store is one reader-writer lock over its [`Tables`]: every table,
//! every family and the name index over them. Each operation takes the
//! guard once — a read guard to read, the write guard to write — resolves
//! its family under it and is done. Write timestamps come from one atomic
//! logical clock, advanced only for mutations that actually apply (never
//! for rejected writes or absent-cell deletes) and always *inside* the
//! write guard, which makes per-cell timestamp order identical to apply
//! order and every tick correspond to exactly one observable [`WriteRef`].
//! Each write is folded into the change sets watching its family under the
//! guard (`changes`); observer callbacks never run under it.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::cell::Timestamp;
use crate::container::ContainerRef;
use crate::error::StoreError;
use crate::frozen::OpObserverBus;
use crate::observer::{ObserverBus, ObserverHandle, OpKind, WriteKind, WriteObserver, WriteRef};
use crate::scan::{RowScan, ScanFilter};
use crate::snapshot::Snapshot;
use crate::state::{CellState, FamilyState, StoreState, TableState};
use crate::table::{ColumnFamily, Row};
use crate::value::Value;

mod changes;
mod handle;

pub use changes::WatchList;
pub use handle::FamilyHandle;

/// Everything the store holds, behind its one lock.
#[derive(Default)]
pub(crate) struct Tables {
    /// `table → family → slot` in `families`. A table with no family yet is
    /// an empty entry. Nested so a lookup works from `&str` keys without
    /// allocating; ordered so tables and families list by name whatever
    /// order they were created in.
    index: BTreeMap<String, BTreeMap<String, usize>>,
    /// The families, in creation order. None is ever removed, so a slot
    /// stays valid for the store's life — what lets a [`FamilyHandle`]
    /// resolve its family once.
    pub(crate) families: Vec<ColumnFamily>,
    /// The watched containers and their change sets, folded by every write
    /// under this lock.
    changes: changes::Changes,
}

/// A family's address: its names and — once resolved — its slot.
/// String-addressed calls carry `slot: None` and resolve under the guard
/// the operation takes anyway.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FamilyAddr<'a> {
    table: &'a str,
    family: &'a str,
    slot: Option<usize>,
}

/// A point-in-time view of the store lock's counters.
///
/// Contention is counted optimistically: each lock acquisition first tries
/// a non-blocking grab and bumps the matching counter only when it has to
/// fall back to a blocking wait, so the counters measure *actual* lock
/// waits, not traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Read acquisitions that had to block on a writer.
    pub read_contention: u64,
    /// Write acquisitions that had to block on another holder.
    pub write_contention: u64,
    /// State exports taken ([`DataStore::export_state`] calls).
    pub quiesces: u64,
}

struct StoreShared {
    tables: RwLock<Tables>,
    // tidy:atomic(read_contention: relaxed): monitoring counter; no other data is ordered by it
    read_contention: AtomicU64,
    // tidy:atomic(write_contention: relaxed): monitoring counter; no other data is ordered by it
    write_contention: AtomicU64,
    /// Logical write clock. Only advanced while holding the write guard,
    /// so per-cell timestamps order like applies.
    // tidy:atomic(clock: load=acquire, store=release, rmw=relaxed): advances happen under the write guard, so rmw needs no extra ordering; recovery publishes a restored clock with release and snapshot readers pair with acquire
    clock: AtomicU64,
    // tidy:atomic(quiesces: relaxed): monitoring counter; no other data is ordered by it
    quiesces: AtomicU64,
}

/// A cheaply-cloneable handle to an in-memory columnar store.
///
/// All clones share the same underlying data; the handle is `Send + Sync`
/// and safe to use from workflow steps running on any thread.
///
/// # Example
///
/// ```
/// use smartflux_datastore::{DataStore, Value};
///
/// # fn main() -> Result<(), smartflux_datastore::StoreError> {
/// let store = DataStore::new();
/// store.create_table("t")?;
/// store.create_family("t", "f")?;
/// store.put("t", "f", "row", "col", Value::from(1.0))?;
///
/// let other_handle = store.clone();
/// assert!(other_handle.get("t", "f", "row", "col")?.is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct DataStore {
    shared: Arc<StoreShared>,
    observers: Arc<RwLock<ObserverBus>>,
    // Mirror of observers.len(), so unobserved writes build no event and
    // skip the bus lock.
    // tidy:atomic(observer_count: load=relaxed, store=release): fast-path hint only — a stale zero skips a notification briefly, and the bus RwLock is the true synchronizer
    observer_count: Arc<AtomicUsize>,
    pub(crate) op_observers: Arc<RwLock<OpObserverBus>>,
    // Mirror of op_observers.len(), so the per-operation fast path is one
    // relaxed load instead of a lock acquisition.
    // tidy:atomic(op_observer_count: load=relaxed, store=release): fast-path hint only — a stale zero skips the bus lock briefly, and the bus RwLock is the true synchronizer
    pub(crate) op_observer_count: Arc<AtomicUsize>,
}

impl Default for DataStore {
    fn default() -> Self {
        Self {
            shared: Arc::new(StoreShared {
                tables: RwLock::new(Tables::default()),
                read_contention: AtomicU64::new(0),
                write_contention: AtomicU64::new(0),
                clock: AtomicU64::new(0),
                quiesces: AtomicU64::new(0),
            }),
            observers: Arc::new(RwLock::new(ObserverBus::default())),
            observer_count: Arc::new(AtomicUsize::new(0)),
            op_observers: Arc::new(RwLock::new(OpObserverBus::default())),
            op_observer_count: Arc::new(AtomicUsize::new(0)),
        }
    }
}

impl DataStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Point-in-time counters of the store lock: blocking read and write
    /// acquisitions, and state exports.
    ///
    /// The method, its type and the `store.shard_*` gauges fed from it keep
    /// the names they had when the store was sharded: `benchmark/` reads
    /// `write_contention` and `diagnose scrape` requires the
    /// `store.shard_write_contention` gauge, so renaming them waits for the
    /// next re-baseline of `benchmark/`.
    #[must_use]
    pub fn shard_stats(&self) -> ShardStats {
        ShardStats {
            read_contention: self.shared.read_contention.load(Ordering::Relaxed),
            write_contention: self.shared.write_contention.load(Ordering::Relaxed),
            quiesces: self.shared.quiesces.load(Ordering::Relaxed),
        }
    }

    /// Creates a table.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::TableExists`] if the name is taken.
    pub fn create_table(&self, name: &str) -> Result<(), StoreError> {
        self.lock_write().create_table(name)
    }

    /// Creates a column family inside an existing table.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::TableNotFound`] if the table does not exist and
    /// [`StoreError::FamilyExists`] if the family name is taken.
    pub fn create_family(&self, table: &str, family: &str) -> Result<(), StoreError> {
        self.lock_write().create_family(table, family).map(drop)
    }

    /// Creates a table and family in one call, ignoring pre-existing ones.
    ///
    /// Convenience for workload setup code.
    ///
    /// # Errors
    ///
    /// Propagates internal errors other than "already exists".
    pub fn ensure_container(&self, container: &ContainerRef) -> Result<(), StoreError> {
        match self.create_table(container.table()) {
            Ok(()) | Err(StoreError::TableExists(_)) => {}
            Err(e) => return Err(e),
        }
        match self.create_family(container.table(), container.family_name()) {
            Ok(()) | Err(StoreError::FamilyExists { .. }) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Returns `true` if the table exists.
    #[must_use]
    pub fn has_table(&self, name: &str) -> bool {
        self.lock_read().index.contains_key(name)
    }

    /// Resolves `(table, family)` once and returns a handle whose reads and
    /// writes skip the name lookup — for a loop over one family. The names
    /// are borrowed, not copied.
    ///
    /// # Errors
    ///
    /// Returns an error if the table or family does not exist (a family
    /// created later needs a new handle).
    pub fn family<'a>(
        &'a self,
        table: &'a str,
        family: &'a str,
    ) -> Result<FamilyHandle<'a>, StoreError> {
        let mut at = addr(table, family);
        let Some(slot) = self.read_at(&at).map(|(_, slot)| slot) else {
            return Err(self.missing(&at));
        };
        at.slot = Some(slot);
        Ok(FamilyHandle::new(self, at))
    }

    /// Writes `value` under `(table, family, row, qualifier)`.
    ///
    /// Returns the displaced current value, if the cell already existed, and
    /// notifies registered observers.
    ///
    /// # Errors
    ///
    /// Returns an error if the table or family does not exist. A failed
    /// write does **not** advance the logical clock: the container is
    /// resolved first and the timestamp is only drawn once the mutation
    /// is guaranteed to apply, so every tick corresponds to exactly one
    /// observable [`WriteRef`].
    pub fn put(
        &self,
        table: &str,
        family: &str,
        row: &str,
        qualifier: &str,
        value: Value,
    ) -> Result<Option<Value>, StoreError> {
        self.put_at(&addr(table, family), row, qualifier, value)
    }

    /// [`put`](Self::put) on the family at `at`.
    fn put_at(
        &self,
        at: &FamilyAddr<'_>,
        row: &str,
        qualifier: &str,
        value: Value,
    ) -> Result<Option<Value>, StoreError> {
        self.timed(OpKind::Put, 1, || {
            let observed = self.observed();
            let Some((mut data, slot)) = self.write_at(at) else {
                return Err(self.missing(at));
            };
            // Tick only now that the write is certain to apply. The tick
            // happens inside the write guard, so the timestamp order
            // matches the apply order.
            let ts = self.shared.clock.fetch_add(1, Ordering::Relaxed) + 1;
            let Tables {
                families, changes, ..
            } = &mut *data;
            let mut watching = changes.watching(slot);
            // The cell takes `value`; change sets and observers get the one
            // copy kept here, and an unwatched, unobserved write keeps none.
            let new = (observed || watching.is_some()).then(|| value.clone());
            let old = families[slot].put_cell(row, qualifier, value, ts);
            if let (Some(watching), Some(new)) = (&mut watching, &new) {
                watching.fold(row, qualifier, old.as_ref(), Some(new));
            }
            drop(data);
            if let (true, Some(new)) = (observed, &new) {
                self.notify(&WriteRef {
                    table: at.table,
                    family: at.family,
                    row,
                    qualifier,
                    kind: WriteKind::Put,
                    old: old.as_ref(),
                    new: Some(new),
                    timestamp: ts,
                });
            }
            Ok(old)
        })
    }

    /// A batch put on the family at `at`: `cells` — `(row, qualifier,
    /// value)`, in order — are applied under a single write guard as
    /// `cells.len()` [`put_at`](Self::put_at)s would be, one after the
    /// other: consecutive timestamps, each folded into the change sets in
    /// order (their watchers looked up once), and the observers hear about
    /// each, in order, once the guard is gone. The displaced values are
    /// dropped.
    ///
    /// An unobserved batch asks the heap for nothing beyond what its cells
    /// do; an observed one for a single buffer, of the displaced values it
    /// hands the observers after the guard is gone.
    fn put_many_at(
        &self,
        at: &FamilyAddr<'_>,
        cells: Vec<(&str, &str, Value)>,
    ) -> Result<(), StoreError> {
        self.timed(OpKind::Put, cells.len(), || {
            let observed = self.observed();
            let Some((mut data, slot)) = self.write_at(at) else {
                return Err(self.missing(at));
            };
            // As in `put_at`, one tick per cell, all under the guard.
            let first_ts = self
                .shared
                .clock
                .fetch_add(cells.len() as u64, Ordering::Relaxed)
                + 1;
            let Tables {
                families, changes, ..
            } = &mut *data;
            let family = &mut families[slot];
            let mut watching = changes.watching(slot);
            if !observed && watching.is_none() {
                for (ts, (row, qualifier, value)) in (first_ts..).zip(cells) {
                    family.put_cell(row, qualifier, value, ts);
                }
                return Ok(());
            }
            // Each cell takes a copy; the change sets and the observers
            // read the value left in `cells`.
            let mut olds = Vec::with_capacity(if observed { cells.len() } else { 0 });
            for (ts, (row, qualifier, new)) in (first_ts..).zip(&cells) {
                let old = family.put_cell(row, qualifier, new.clone(), ts);
                if let Some(watching) = &mut watching {
                    watching.fold(row, qualifier, old.as_ref(), Some(new));
                }
                if observed {
                    olds.push(old);
                }
            }
            drop(data);
            for (timestamp, ((row, qualifier, new), old)) in
                (first_ts..).zip(cells.iter().zip(&olds))
            {
                self.notify(&WriteRef {
                    table: at.table,
                    family: at.family,
                    row,
                    qualifier,
                    kind: WriteKind::Put,
                    old: old.as_ref(),
                    new: Some(new),
                    timestamp,
                });
            }
            Ok(())
        })
    }

    /// Deletes the cell under `(table, family, row, qualifier)`.
    ///
    /// Returns the removed value, if any, and notifies observers when a
    /// value was actually removed.
    ///
    /// # Errors
    ///
    /// Returns an error if the table or family does not exist. As with
    /// [`put`](Self::put), the clock only advances when a mutation is
    /// actually applied: deleting an absent cell is a no-op and consumes
    /// no timestamp.
    pub fn delete(
        &self,
        table: &str,
        family: &str,
        row: &str,
        qualifier: &str,
    ) -> Result<Option<Value>, StoreError> {
        self.delete_at(&addr(table, family), row, qualifier)
    }

    /// [`delete`](Self::delete) on the family at `at`.
    fn delete_at(
        &self,
        at: &FamilyAddr<'_>,
        row: &str,
        qualifier: &str,
    ) -> Result<Option<Value>, StoreError> {
        self.timed(OpKind::Delete, 1, || {
            let Some((mut data, slot)) = self.write_at(at) else {
                return Err(self.missing(at));
            };
            let old = data.families[slot].delete_cell(row, qualifier);
            // Tick only when a value was actually removed, inside the
            // write guard so timestamp order matches apply order.
            let ts = old
                .is_some()
                .then(|| self.shared.clock.fetch_add(1, Ordering::Relaxed) + 1);
            if let Some(mut watching) = data.changes.watching(slot).filter(|_| old.is_some()) {
                watching.fold(row, qualifier, old.as_ref(), None);
            }
            drop(data);
            if let (Some(old_value), Some(ts)) = (&old, ts) {
                if self.observed() {
                    self.notify(&WriteRef {
                        table: at.table,
                        family: at.family,
                        row,
                        qualifier,
                        kind: WriteKind::Delete,
                        old: Some(old_value),
                        new: None,
                        timestamp: ts,
                    });
                }
            }
            Ok(old)
        })
    }

    /// Reads the current value of a cell.
    ///
    /// # Errors
    ///
    /// Returns an error if the table or family does not exist. A missing
    /// row or qualifier is not an error and yields `Ok(None)`.
    pub fn get(
        &self,
        table: &str,
        family: &str,
        row: &str,
        qualifier: &str,
    ) -> Result<Option<Value>, StoreError> {
        self.read_cell(&addr(table, family), row, qualifier, |v| v.cloned())
    }

    /// One `get` on the family at `at`: runs `f` on the cell's current
    /// value in place, under the read guard, and returns what it kept.
    fn read_cell<T>(
        &self,
        at: &FamilyAddr<'_>,
        row: &str,
        qualifier: &str,
        f: impl FnOnce(Option<&Value>) -> T,
    ) -> Result<T, StoreError> {
        self.timed(OpKind::Get, 1, || {
            let Some((data, slot)) = self.read_at(at) else {
                return Err(self.missing(at));
            };
            let row = data.families[slot].row(row);
            Ok(f(row.and_then(|r| r.value(qualifier))))
        })
    }

    /// Scans rows of a column family, subject to `filter`.
    ///
    /// # Errors
    ///
    /// Returns an error if the table or family does not exist.
    pub fn scan(
        &self,
        table: &str,
        family: &str,
        filter: &ScanFilter,
    ) -> Result<Vec<RowScan>, StoreError> {
        let at = addr(table, family);
        self.timed(OpKind::Scan, 1, || {
            let Some((data, slot)) = self.read_at(&at) else {
                return Err(self.missing(&at));
            };
            let mut out = Vec::new();
            for (key, row) in data.families[slot].iter() {
                if filter.limit.is_some_and(|l| out.len() >= l) {
                    break;
                }
                if !filter.matches_row(key) {
                    continue;
                }
                let columns: Vec<(String, Value)> = row
                    .iter()
                    .filter(|(q, _, _)| filter.matches_qualifier(q))
                    .map(|(q, _, v)| (q.to_owned(), v.clone()))
                    .collect();
                if columns.is_empty() {
                    continue;
                }
                out.push(RowScan {
                    key: key.to_owned(),
                    columns,
                });
            }
            Ok(out)
        })
    }

    /// One scan of the family at `at`: `f` sees every row, in key order,
    /// under the read guard.
    fn visit_rows(
        &self,
        at: &FamilyAddr<'_>,
        mut f: impl FnMut(&str, &Row),
    ) -> Result<(), StoreError> {
        self.timed(OpKind::Scan, 1, || {
            let Some((data, slot)) = self.read_at(at) else {
                return Err(self.missing(at));
            };
            for (key, row) in data.families[slot].iter() {
                f(key, row);
            }
            Ok(())
        })
    }

    /// Captures a point-in-time snapshot of a container's current values,
    /// under one read guard: it is always self-consistent.
    ///
    /// # Errors
    ///
    /// Returns an error if the container's table or family does not exist.
    pub fn snapshot(&self, container: &ContainerRef) -> Result<Snapshot, StoreError> {
        let at = addr(container.table(), container.family_name());
        self.timed(OpKind::Snapshot, 1, || {
            let Some((data, slot)) = self.read_at(&at) else {
                return Err(self.missing(&at));
            };
            let mut snap = Snapshot::new();
            for (key, row) in data.families[slot].iter() {
                for (q, _, value) in row.iter() {
                    if container.qualifier().is_none_or(|cq| cq == q) {
                        snap.insert(key.to_owned(), q.to_owned(), value.clone());
                    }
                }
            }
            Ok(snap)
        })
    }

    /// Folds `f` over a container's current cells in ascending
    /// `(row, qualifier)` order — the order [`snapshot`](Self::snapshot)
    /// iterates in — without copying a key or a value.
    ///
    /// `f` runs under the store's read guard, so it must not call back into
    /// the store: a write from inside it deadlocks every time, and so does
    /// a read whenever a writer is waiting for the lock.
    ///
    /// # Errors
    ///
    /// Returns an error if the container's table or family does not exist.
    pub fn fold_cells<T>(
        &self,
        container: &ContainerRef,
        init: T,
        mut f: impl FnMut(T, &str, &str, &Value) -> T,
    ) -> Result<T, StoreError> {
        let at = addr(container.table(), container.family_name());
        self.timed(OpKind::Scan, 1, || {
            let Some((data, slot)) = self.read_at(&at) else {
                return Err(self.missing(&at));
            };
            let mut acc = init;
            for (key, row) in data.families[slot].iter() {
                for (q, _, value) in row.iter() {
                    if container.qualifier().is_none_or(|cq| cq == q) {
                        acc = f(acc, key, q, value);
                    }
                }
            }
            Ok(acc)
        })
    }

    /// Number of populated cells in a container.
    ///
    /// # Errors
    ///
    /// Returns an error if the container's table or family does not exist.
    pub fn cell_count(&self, container: &ContainerRef) -> Result<usize, StoreError> {
        let at = addr(container.table(), container.family_name());
        let Some((data, slot)) = self.read_at(&at) else {
            return Err(self.missing(&at));
        };
        let fam = &data.families[slot];
        Ok(match container.qualifier() {
            None => fam.cell_count(),
            Some(q) => fam.iter().filter(|(_, row)| row.value(q).is_some()).count(),
        })
    }

    /// Registers a write observer; returns a handle for unregistration.
    pub fn register_observer(&self, observer: Arc<dyn WriteObserver>) -> ObserverHandle {
        let mut bus = self.observers.write();
        let handle = ObserverHandle(bus.register(observer));
        self.observer_count.store(bus.len(), Ordering::Release);
        handle
    }

    /// Unregisters an observer. Returns `false` if the handle was unknown.
    pub fn unregister_observer(&self, handle: ObserverHandle) -> bool {
        let mut bus = self.observers.write();
        let removed = bus.unregister(handle.0);
        self.observer_count.store(bus.len(), Ordering::Release);
        removed
    }

    /// Whether anyone observes writes — asked before a write, so an
    /// unobserved one keeps no copy of its value for them and builds no
    /// event.
    fn observed(&self) -> bool {
        self.observer_count.load(Ordering::Relaxed) != 0
    }

    /// Hands `event` to every observer; called under no guard.
    fn notify(&self, event: &WriteRef<'_>) {
        // The snapshot is a cached Arc clone; the bus guard is released
        // before any callback runs, so observers may re-enter the store.
        let observers = self.observers.read().snapshot();
        for obs in observers.iter() {
            obs.on_write(event);
        }
    }

    /// Current logical clock value (timestamp of the most recent write).
    #[must_use]
    pub fn clock(&self) -> Timestamp {
        self.shared.clock.load(Ordering::Acquire)
    }

    /// Overwrites the logical clock.
    ///
    /// Recovery support: after replaying a write-ahead-log batch (whose
    /// operations carry their original timestamps), the clock is restored to
    /// the committed value so subsequent writes continue the original
    /// timestamp sequence. Not intended for use outside recovery.
    pub fn set_clock(&self, clock: Timestamp) {
        self.shared.clock.store(clock, Ordering::Release);
    }

    /// Captures the full store contents — every table, family and cell, plus
    /// the logical clock — as plain data.
    ///
    /// This is the checkpoint surface of the durability subsystem: the
    /// returned [`StoreState`] owns copies of everything and holds no lock.
    ///
    /// # Consistency
    ///
    /// The export is taken under one read guard. Because the clock only
    /// advances inside the write guard, the clock read under it is an exact
    /// consistent cut — the state contains every write with `ts ≤ clock`
    /// and none after. Concurrent readers are unaffected; writers block for
    /// the duration of the copy.
    #[must_use]
    pub fn export_state(&self) -> StoreState {
        self.shared.quiesces.fetch_add(1, Ordering::Relaxed);
        let data = self.lock_read();
        let clock = self.shared.clock.load(Ordering::Acquire);
        let tables = data
            .index
            .iter()
            .map(|(name, slots)| TableState {
                name: name.clone(),
                families: slots
                    .iter()
                    .map(|(fname, &slot)| FamilyState {
                        name: fname.clone(),
                        cells: data.families[slot]
                            .iter()
                            .flat_map(|(row, r)| {
                                r.iter().map(move |(q, ts, value)| CellState {
                                    row: row.to_owned(),
                                    qualifier: q.to_owned(),
                                    versions: [(ts, value.clone())],
                                })
                            })
                            .collect(),
                    })
                    .collect(),
            })
            .collect();
        StoreState { clock, tables }
    }

    /// Reconstructs a store from a previously exported [`StoreState`].
    ///
    /// The recovery constructor: the result is indistinguishable from the
    /// store that produced the state — same containers, same cells, same
    /// timestamps, same clock. No observers are registered and none are
    /// notified during reconstruction.
    ///
    /// # Errors
    ///
    /// Returns an error if the state names a duplicate table or family.
    pub fn from_state(state: StoreState) -> Result<Self, StoreError> {
        let store = Self::new();
        let mut data = store.lock_write();
        for table in state.tables {
            data.create_table(&table.name)?;
            for family in table.families {
                let slot = data.create_family(&table.name, &family.name)?;
                let fam = &mut data.families[slot];
                for cell in family.cells {
                    let [(ts, value)] = cell.versions;
                    fam.put_cell(&cell.row, &cell.qualifier, value, ts);
                }
            }
        }
        drop(data);
        store.set_clock(state.clock);
        Ok(store)
    }

    /// Names of all tables, in order.
    #[must_use]
    pub fn table_names(&self) -> Vec<String> {
        self.lock_read().index.keys().cloned().collect()
    }

    /// Takes the read guard and finds the family at `at` under it — the one
    /// place a read resolves its family. `None`, with the guard dropped
    /// again, when it is not there: see [`Self::missing`].
    #[inline]
    fn read_at(&self, at: &FamilyAddr<'_>) -> Option<(RwLockReadGuard<'_, Tables>, usize)> {
        let data = self.lock_read();
        let slot = data.slot(at)?;
        Some((data, slot))
    }

    /// Takes the write guard and finds the family at `at` under it — the
    /// one place a write resolves its family; `None` as for
    /// [`read_at`](Self::read_at). The caller drops the guard before it
    /// notifies anyone.
    #[inline]
    pub(crate) fn write_at(
        &self,
        at: &FamilyAddr<'_>,
    ) -> Option<(RwLockWriteGuard<'_, Tables>, usize)> {
        let data = self.lock_write();
        let slot = data.slot(at)?;
        Some((data, slot))
    }

    /// Why nothing was found at `at`: "table missing" or "family missing".
    /// Called once the resolver has dropped its guard, so the error stays
    /// off the hot path's return.
    fn missing(&self, at: &FamilyAddr<'_>) -> StoreError {
        if self.lock_read().index.contains_key(at.table) {
            StoreError::FamilyNotFound {
                table: at.table.to_owned(),
                family: at.family.to_owned(),
            }
        } else {
            StoreError::TableNotFound(at.table.to_owned())
        }
    }

    /// Acquires the read guard, counting blocking acquisitions.
    fn lock_read(&self) -> RwLockReadGuard<'_, Tables> {
        if let Some(guard) = self.shared.tables.try_read() {
            return guard;
        }
        self.shared.read_contention.fetch_add(1, Ordering::Relaxed);
        self.shared.tables.read()
    }

    /// Acquires the write guard, counting blocking acquisitions.
    fn lock_write(&self) -> RwLockWriteGuard<'_, Tables> {
        if let Some(guard) = self.shared.tables.try_write() {
            return guard;
        }
        self.shared.write_contention.fetch_add(1, Ordering::Relaxed);
        self.shared.tables.write()
    }
}

/// The unresolved address of `(table, family)`.
#[inline]
fn addr<'a>(table: &'a str, family: &'a str) -> FamilyAddr<'a> {
    FamilyAddr {
        table,
        family,
        slot: None,
    }
}

impl Tables {
    /// The slot of the family at `at`: the one a handle resolved, else the
    /// name index's.
    #[inline]
    fn slot(&self, at: &FamilyAddr<'_>) -> Option<usize> {
        at.slot
            .or_else(|| self.index.get(at.table)?.get(at.family).copied())
    }

    fn create_table(&mut self, name: &str) -> Result<(), StoreError> {
        if self.index.contains_key(name) {
            return Err(StoreError::TableExists(name.to_owned()));
        }
        self.index.insert(name.to_owned(), BTreeMap::new());
        Ok(())
    }

    /// Adds an empty family and returns its slot.
    fn create_family(&mut self, table: &str, family: &str) -> Result<usize, StoreError> {
        let Some(slots) = self.index.get_mut(table) else {
            return Err(StoreError::TableNotFound(table.to_owned()));
        };
        if slots.contains_key(family) {
            return Err(StoreError::FamilyExists {
                table: table.to_owned(),
                family: family.to_owned(),
            });
        }
        let slot = self.families.len();
        slots.insert(family.to_owned(), slot);
        self.families.push(ColumnFamily::new());
        self.changes.bind(table, family, slot);
        Ok(slot)
    }
}

impl fmt::Debug for DataStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DataStore")
            .field("tables", &self.lock_read().index.len())
            .field("clock", &self.clock())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::WriteEvent;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn store_with_tf() -> DataStore {
        let s = DataStore::new();
        s.create_table("t").unwrap();
        s.create_family("t", "f").unwrap();
        s
    }

    #[test]
    fn create_table_twice_fails() {
        let s = DataStore::new();
        s.create_table("t").unwrap();
        assert_eq!(
            s.create_table("t"),
            Err(StoreError::TableExists("t".into()))
        );
    }

    #[test]
    fn put_get_roundtrip() {
        let s = store_with_tf();
        assert_eq!(s.put("t", "f", "r", "q", Value::from(1.0)).unwrap(), None);
        assert_eq!(
            s.put("t", "f", "r", "q", Value::from(2.0)).unwrap(),
            Some(Value::from(1.0))
        );
        assert_eq!(s.get("t", "f", "r", "q").unwrap(), Some(Value::from(2.0)));
        assert_eq!(s.get("t", "f", "r", "missing").unwrap(), None);
    }

    #[test]
    fn missing_family_is_an_error() {
        let s = store_with_tf();
        assert!(matches!(
            s.get("t", "nope", "r", "q"),
            Err(StoreError::FamilyNotFound { .. })
        ));
        assert!(matches!(
            s.put("nope", "f", "r", "q", Value::from(1.0)),
            Err(StoreError::TableNotFound(_))
        ));
    }

    #[test]
    fn failed_writes_do_not_advance_the_clock() {
        // Regression test for a seed-era bug: the original global-lock
        // implementation ticked the clock *before* resolving the container, so a
        // rejected put, a delete against a missing table, or a delete of
        // an absent cell each consumed a timestamp. The sequence below
        // used to leave the clock at 3. Timestamps now map one-to-one
        // onto applied mutations (observable `WriteEvent`s), so the
        // clock must stay untouched.
        let s = store_with_tf();
        assert!(s.put("t", "nope", "r", "q", Value::from(1.0)).is_err());
        assert_eq!(s.clock(), 0);
        assert!(s.delete("nope", "f", "r", "q").is_err());
        assert_eq!(s.clock(), 0);
        // Deleting an absent cell from a real family is a no-op, not a
        // mutation: no tick, no event.
        assert_eq!(s.delete("t", "f", "r", "q").unwrap(), None);
        assert_eq!(s.clock(), 0);
        // An applied write still ticks exactly once.
        s.put("t", "f", "r", "q", Value::from(1.0)).unwrap();
        assert_eq!(s.clock(), 1);
        assert_eq!(
            s.delete("t", "f", "r", "q").unwrap(),
            Some(Value::from(1.0))
        );
        assert_eq!(s.clock(), 2);
    }

    #[test]
    fn delete_removes_and_notifies_once() {
        let s = store_with_tf();
        let count = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&count);
        s.register_observer(Arc::new(move |e: &WriteEvent| {
            if e.kind == WriteKind::Delete {
                c.fetch_add(1, Ordering::SeqCst);
            }
        }));
        s.put("t", "f", "r", "q", Value::from(1.0)).unwrap();
        assert_eq!(
            s.delete("t", "f", "r", "q").unwrap(),
            Some(Value::from(1.0))
        );
        // Deleting an absent cell neither errors nor notifies.
        assert_eq!(s.delete("t", "f", "r", "q").unwrap(), None);
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn observer_sees_old_and_new() {
        let s = store_with_tf();
        let seen: Arc<parking_lot::Mutex<Vec<WriteEvent>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        s.register_observer(Arc::new(move |e: &WriteEvent| {
            seen2.lock().push(e.clone());
        }));
        s.put("t", "f", "r", "q", Value::from(1.0)).unwrap();
        s.put("t", "f", "r", "q", Value::from(4.0)).unwrap();
        let events = seen.lock();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].old, None);
        assert_eq!(events[1].old, Some(Value::from(1.0)));
        assert_eq!(events[1].new, Some(Value::from(4.0)));
        assert!(events[1].timestamp > events[0].timestamp);
    }

    #[test]
    fn unregistered_observer_is_silent() {
        let s = store_with_tf();
        let count = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&count);
        let h = s.register_observer(Arc::new(move |_: &WriteEvent| {
            c.fetch_add(1, Ordering::SeqCst);
        }));
        s.put("t", "f", "r", "q", Value::from(1.0)).unwrap();
        assert!(s.unregister_observer(h));
        s.put("t", "f", "r", "q", Value::from(2.0)).unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn scan_with_prefix_and_limit() {
        let s = store_with_tf();
        for i in 0..5 {
            s.put(
                "t",
                "f",
                &format!("seg-{i}"),
                "speed",
                Value::from(i as f64),
            )
            .unwrap();
            s.put("t", "f", &format!("veh-{i}"), "pos", Value::from(i as f64))
                .unwrap();
        }
        // The limit is checked before a row is taken, so 0 means none.
        for limit in [0, 1, 3] {
            let rows = s
                .scan(
                    "t",
                    "f",
                    &ScanFilter::all().with_row_prefix("seg-").with_limit(limit),
                )
                .unwrap();
            assert_eq!(rows.len(), limit, "limit {limit}");
            assert!(rows.iter().all(|r| r.key.starts_with("seg-")));
        }
    }

    #[test]
    fn snapshot_captures_column_subset() {
        let s = store_with_tf();
        s.put("t", "f", "r1", "a", Value::from(1.0)).unwrap();
        s.put("t", "f", "r1", "b", Value::from(2.0)).unwrap();
        s.put("t", "f", "r2", "a", Value::from(3.0)).unwrap();
        let fam_snap = s.snapshot(&ContainerRef::family("t", "f")).unwrap();
        assert_eq!(fam_snap.len(), 3);
        let col_snap = s.snapshot(&ContainerRef::column("t", "f", "a")).unwrap();
        assert_eq!(col_snap.len(), 2);
        assert_eq!(col_snap.get("r1", "a"), Some(&Value::from(1.0)));
    }

    #[test]
    fn fold_cells_visits_what_snapshot_captures_in_the_same_order() {
        let s = store_with_tf();
        for (r, q, v) in [("r2", "a", 3.0), ("r1", "b", 2.0), ("r1", "a", 1.0)] {
            s.put("t", "f", r, q, Value::from(v)).unwrap();
        }
        for c in [
            ContainerRef::family("t", "f"),
            ContainerRef::column("t", "f", "a"),
        ] {
            let visited = s
                .fold_cells(&c, Vec::new(), |mut acc, r, q, v| {
                    acc.push(((r.to_owned(), q.to_owned()), v.clone()));
                    acc
                })
                .unwrap();
            let snap = s.snapshot(&c).unwrap();
            let captured: Vec<_> = snap.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            assert_eq!(visited, captured);
        }
        assert!(matches!(
            s.fold_cells(&ContainerRef::family("t", "nope"), 0, |n, _, _, _| n + 1),
            Err(StoreError::FamilyNotFound { .. })
        ));
    }

    #[test]
    fn cell_count_per_container() {
        let s = store_with_tf();
        s.put("t", "f", "r1", "a", Value::from(1.0)).unwrap();
        s.put("t", "f", "r1", "b", Value::from(2.0)).unwrap();
        s.put("t", "f", "r2", "a", Value::from(3.0)).unwrap();
        assert_eq!(s.cell_count(&ContainerRef::family("t", "f")).unwrap(), 3);
        assert_eq!(
            s.cell_count(&ContainerRef::column("t", "f", "a")).unwrap(),
            2
        );
    }

    #[test]
    fn ensure_container_is_idempotent() {
        let s = DataStore::new();
        let c = ContainerRef::family("t", "f");
        s.ensure_container(&c).unwrap();
        s.ensure_container(&c).unwrap();
        assert!(s.has_table("t"));
    }

    #[test]
    fn clones_share_state() {
        let s = store_with_tf();
        let s2 = s.clone();
        s.put("t", "f", "r", "q", Value::from(9.0)).unwrap();
        assert_eq!(s2.get("t", "f", "r", "q").unwrap(), Some(Value::from(9.0)));
    }

    #[test]
    fn store_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DataStore>();
    }

    #[test]
    fn export_state_counts_a_quiesce() {
        let s = store_with_tf();
        assert_eq!(s.shard_stats().quiesces, 0);
        let _ = s.export_state();
        let _ = s.export_state();
        assert_eq!(s.shard_stats().quiesces, 2);
    }

    #[test]
    fn snapshot_diff_ignores_delete_then_readd_at_same_value() {
        let s = store_with_tf();
        s.put("t", "f", "r", "q", Value::from(5.0)).unwrap();
        let c = ContainerRef::family("t", "f");
        let before = s.snapshot(&c).unwrap();

        // Delete and re-add the slot at the same value. The cell's
        // timestamp moves, but the snapshot diff sees values only.
        s.delete("t", "f", "r", "q").unwrap();
        s.put("t", "f", "r", "q", Value::from(5.0)).unwrap();
        let after = s.snapshot(&c).unwrap();
        assert!(after.diff(&before).is_empty());

        // Whereas re-adding at a different value is a visible update.
        s.delete("t", "f", "r", "q").unwrap();
        s.put("t", "f", "r", "q", Value::from(6.0)).unwrap();
        let after = s.snapshot(&c).unwrap();
        let d = after.diff(&before);
        assert_eq!(d.modified_count(), 1);
        assert_eq!(d.changes()[0].magnitude(), 1.0);
    }

    #[test]
    fn export_state_roundtrips_through_from_state() {
        let s = store_with_tf();
        s.create_family("t", "g").unwrap();
        s.create_table("empty").unwrap();
        for i in 0..5 {
            s.put("t", "f", "r", "q", Value::from(f64::from(i)))
                .unwrap();
        }
        s.put("t", "g", "r2", "name", Value::from("x")).unwrap();
        s.put("t", "g", "r2", "raw", Value::from(vec![1u8, 2]))
            .unwrap();
        s.delete("t", "f", "r", "missing").unwrap();

        let state = s.export_state();
        let restored = DataStore::from_state(state.clone()).unwrap();
        assert_eq!(restored.export_state(), state);
        assert_eq!(restored.clock(), s.clock());
        assert!(restored.has_table("empty"));
        let cell = &state.tables[1].families[0].cells[0];
        assert_eq!(cell.versions, [(5, Value::from(4.0))]);
    }

    #[test]
    fn from_state_rejects_duplicate_names() {
        let mut state = store_with_tf().export_state();
        let table = state.tables[0].clone();
        state.tables.push(table);
        assert_eq!(
            DataStore::from_state(state).unwrap_err(),
            StoreError::TableExists("t".into())
        );

        let mut state = store_with_tf().export_state();
        let family = state.tables[0].families[0].clone();
        state.tables[0].families.push(family);
        assert!(matches!(
            DataStore::from_state(state),
            Err(StoreError::FamilyExists { .. })
        ));
    }
}
