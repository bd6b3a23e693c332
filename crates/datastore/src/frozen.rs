//! Surface fenced off for the frozen benchmark (`benchmark/`) until its
//! re-baseline (ROADMAP item 3), when it goes. Every public item is
//! `#[deprecated]`.
//!
//! - Write-ahead-log replay: the store-level WAL (`smartflux-durability`'s
//!   `frozen` module) replays through it.
//! - The op-observer bus: a callback on every store operation, which the
//!   benchmark's recorder counts reads and writes with. Nothing else
//!   registers one; telemetry reads the store clock at wave boundaries
//!   instead.
//!
//! What cannot move here: the `CellState.versions` field, which the
//! benchmark reads by name (`benchmark/src/common.rs`), and
//! [`DataStore::shard_stats`], which a session publishes to `/metrics`.

#![allow(deprecated)]

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cell::Timestamp;
use crate::error::StoreError;
use crate::observer::{Bus, OpKind};
use crate::store::{DataStore, FamilyHandle};
use crate::table::ColumnFamily;
use crate::value::Value;

/// An observer of store operation timings: each completed store call
/// reports its kind and wall-clock duration.
///
/// Invoked synchronously on the calling thread with the store lock
/// released; implementations must be cheap and `Send + Sync`. When no op
/// observer is registered the store skips timing entirely (one relaxed
/// atomic load per operation).
#[deprecated(note = "kept only for benchmark/ until its re-baseline, ROADMAP item 3")]
pub trait OpObserver: Send + Sync {
    /// Called once per completed store operation.
    fn on_op(&self, op: OpKind, elapsed: Duration);
}

impl<F> OpObserver for F
where
    F: Fn(OpKind, Duration) + Send + Sync,
{
    fn on_op(&self, op: OpKind, elapsed: Duration) {
        self(op, elapsed);
    }
}

/// Handle returned by [`DataStore::register_op_observer`]; pass it to
/// [`DataStore::unregister_op_observer`] to stop receiving timings.
#[deprecated(note = "kept only for benchmark/ until its re-baseline, ROADMAP item 3")]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpObserverHandle(u64);

/// The registry of op observers.
pub(crate) type OpObserverBus = Bus<dyn OpObserver>;

impl DataStore {
    /// Registers an operation-timing observer; returns a handle for
    /// unregistration. See [`OpObserver`] for the cost contract.
    #[deprecated(note = "kept only for benchmark/ until its re-baseline, ROADMAP item 3")]
    pub fn register_op_observer(&self, observer: Arc<dyn OpObserver>) -> OpObserverHandle {
        let mut bus = self.op_observers.write();
        let handle = OpObserverHandle(bus.register(observer));
        self.op_observer_count.store(bus.len(), Ordering::Release);
        handle
    }

    /// Unregisters an op observer. Returns `false` if the handle was
    /// unknown.
    #[deprecated(note = "kept only for benchmark/ until its re-baseline, ROADMAP item 3")]
    pub fn unregister_op_observer(&self, handle: OpObserverHandle) -> bool {
        let mut bus = self.op_observers.write();
        let removed = bus.unregister(handle.0);
        self.op_observer_count.store(bus.len(), Ordering::Release);
        removed
    }

    /// Runs `op_body` — `count` operations of kind `op` in one — reporting
    /// each with an equal share of the duration to op observers — unless
    /// none is registered, in which case nothing is measured at all.
    pub(crate) fn timed<T>(&self, op: OpKind, count: usize, op_body: impl FnOnce() -> T) -> T {
        if self.op_observer_count.load(Ordering::Relaxed) == 0 {
            return op_body();
        }
        // tidy:allow(time): measures op latency for registered observers;
        // reported, never replayed
        let start = Instant::now();
        let out = op_body();
        let elapsed = start.elapsed() / u32::try_from(count.max(1)).unwrap_or(u32::MAX);
        // Snapshot first so the observer-bus guard is released before any
        // callback runs: an observer that (un)registers an observer or
        // touches the store again must not deadlock on the bus lock.
        let observers = self.op_observers.read().snapshot();
        for _ in 0..count {
            for obs in observers.iter() {
                obs.on_op(op, elapsed);
            }
        }
        out
    }

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
    use crate::{ContainerRef, ScanFilter};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn apply_put_and_delete_are_silent_and_clock_neutral() {
        let s = DataStore::new();
        s.create_table("t").unwrap();
        s.create_family("t", "f").unwrap();
        s.register_observer(Arc::new(|_: &crate::WriteEvent| panic!("notified")));
        s.apply_put("t", "f", "r", "q", Value::from(1.0), 7)
            .unwrap();
        assert_eq!(s.get("t", "f", "r", "q").unwrap(), Some(Value::from(1.0)));
        s.family("t", "f").unwrap().apply_delete("r", "q").unwrap();
        assert_eq!(s.get("t", "f", "r", "q").unwrap(), None);
        assert_eq!(s.clock(), 0);
        assert!(s.apply_delete("t", "nope", "r", "q").is_err());
    }

    #[test]
    fn op_observer_times_reads_and_writes() {
        let s = DataStore::new();
        s.create_table("t").unwrap();
        s.create_family("t", "f").unwrap();
        let reads = Arc::new(AtomicUsize::new(0));
        let writes = Arc::new(AtomicUsize::new(0));
        let (r, w) = (Arc::clone(&reads), Arc::clone(&writes));
        let h = s.register_op_observer(Arc::new(move |op: OpKind, _elapsed: Duration| {
            if op.is_write() {
                w.fetch_add(1, Ordering::SeqCst);
            } else {
                r.fetch_add(1, Ordering::SeqCst);
            }
        }));
        s.put("t", "f", "r", "q", Value::from(1.0)).unwrap();
        s.get("t", "f", "r", "q").unwrap();
        s.scan("t", "f", &ScanFilter::all()).unwrap();
        s.snapshot(&ContainerRef::family("t", "f")).unwrap();
        s.delete("t", "f", "r", "q").unwrap();
        assert_eq!(reads.load(Ordering::SeqCst), 3);
        assert_eq!(writes.load(Ordering::SeqCst), 2);

        // Failed operations are still timed (the cost was paid).
        let _ = s.get("t", "missing", "r", "q");
        assert_eq!(reads.load(Ordering::SeqCst), 4);

        assert!(s.unregister_op_observer(h));
        assert!(!s.unregister_op_observer(h));
        s.put("t", "f", "r", "q", Value::from(2.0)).unwrap();
        assert_eq!(writes.load(Ordering::SeqCst), 2);
    }
}
