//! Write observation: the SmartFlux interception point.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use crate::value::Value;

/// The kind of mutation an observer is notified about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteKind {
    /// A value was inserted or updated.
    Put,
    /// A value was removed.
    Delete,
}

impl fmt::Display for WriteKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteKind::Put => f.write_str("put"),
            WriteKind::Delete => f.write_str("delete"),
        }
    }
}

/// A mutation as [`WriteObserver`]s see it: a borrowed view built on the
/// writer's stack, valid for the duration of the callback only.
///
/// Carries both the old and the new value so observers can compute
/// magnitude-of-change metrics without reading the store back. An observer
/// that needs to keep the mutation calls [`to_owned`](Self::to_owned) and
/// pays for the copy itself.
#[derive(Debug)]
pub struct WriteRef<'a> {
    /// Table that was written.
    pub table: &'a str,
    /// Column family that was written.
    pub family: &'a str,
    /// Row key that was written.
    pub row: &'a str,
    /// Column qualifier that was written.
    pub qualifier: &'a str,
    /// Kind of mutation.
    pub kind: WriteKind,
    /// Value displaced by the write (`None` for a fresh insert).
    pub old: Option<&'a Value>,
    /// Value written (`None` for a delete).
    pub new: Option<&'a Value>,
    /// Store timestamp assigned to the write.
    pub timestamp: u64,
}

impl WriteRef<'_> {
    /// Copies the view into an owned, storable [`WriteEvent`].
    #[must_use]
    pub fn to_owned(&self) -> WriteEvent {
        WriteEvent {
            table: self.table.to_owned(),
            family: self.family.to_owned(),
            row: self.row.to_owned(),
            qualifier: self.qualifier.to_owned(),
            kind: self.kind,
            old: self.old.cloned(),
            new: self.new.cloned(),
            timestamp: self.timestamp,
        }
    }
}

/// The owned form of a [`WriteRef`]: what closure observers receive and
/// what an observer stores when it keeps a mutation.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteEvent {
    /// Table that was written.
    pub table: String,
    /// Column family that was written.
    pub family: String,
    /// Row key that was written.
    pub row: String,
    /// Column qualifier that was written.
    pub qualifier: String,
    /// Kind of mutation.
    pub kind: WriteKind,
    /// Value displaced by the write (`None` for a fresh insert).
    pub old: Option<Value>,
    /// Value written (`None` for a delete).
    pub new: Option<Value>,
    /// Store timestamp assigned to the write.
    pub timestamp: u64,
}

impl WriteEvent {
    /// Borrows the event as the view a [`WriteObserver`] takes.
    #[must_use]
    pub fn as_write_ref(&self) -> WriteRef<'_> {
        WriteRef {
            table: &self.table,
            family: &self.family,
            row: &self.row,
            qualifier: &self.qualifier,
            kind: self.kind,
            old: self.old.as_ref(),
            new: self.new.as_ref(),
            timestamp: self.timestamp,
        }
    }
}

/// An observer of store mutations.
///
/// The notification surface for whoever wants to see every write — the
/// store-level WAL capture, recorders, tests. SmartFlux's Monitoring does
/// not register one: the store derives its change sets in the write path
/// itself, as a co-processor would (see
/// [`DataStore::watch`](crate::DataStore::watch)).
///
/// Observers are invoked synchronously on the writing thread, after the write
/// has been applied, with the store lock released; implementations must be
/// `Send + Sync`. The store allocates nothing to notify: the [`WriteRef`]
/// borrows the writer's arguments.
///
/// Any `Fn(&WriteEvent)` closure is an observer too; it is handed an owned
/// copy made for it, one per call.
pub trait WriteObserver: Send + Sync {
    /// Called once per mutation.
    fn on_write(&self, event: &WriteRef<'_>);
}

impl<F> WriteObserver for F
where
    F: Fn(&WriteEvent) + Send + Sync,
{
    fn on_write(&self, event: &WriteRef<'_>) {
        self(&event.to_owned());
    }
}

/// Handle returned by [`DataStore::register_observer`]; pass it to
/// [`DataStore::unregister_observer`] to stop receiving events.
///
/// [`DataStore::register_observer`]: crate::DataStore::register_observer
/// [`DataStore::unregister_observer`]: crate::DataStore::unregister_observer
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObserverHandle(pub(crate) u64);

/// The registry of write observers.
pub(crate) type ObserverBus = Bus<dyn WriteObserver>;

/// The registry of op observers.
pub(crate) type OpObserverBus = Bus<dyn OpObserver>;

/// A registry of observers of one kind, addressed by registration id.
///
/// The dispatch list is kept pre-materialized as a shared `Arc` slice,
/// rebuilt on (un)registration, so the per-operation hot path clones one
/// `Arc` under the bus read guard instead of allocating a fresh `Vec`.
pub(crate) struct Bus<O: ?Sized> {
    next_id: u64,
    observers: Vec<(u64, Arc<O>)>,
    cached: Arc<Vec<Arc<O>>>,
}

impl<O: ?Sized> Default for Bus<O> {
    fn default() -> Self {
        Self {
            next_id: 0,
            observers: Vec::new(),
            cached: Arc::default(),
        }
    }
}

impl<O: ?Sized> Bus<O> {
    /// Adds `observer` and returns its id.
    pub(crate) fn register(&mut self, observer: Arc<O>) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.observers.push((id, observer));
        self.rebuild();
        id
    }

    /// Removes the observer registered as `id`; `false` if there is none.
    pub(crate) fn unregister(&mut self, id: u64) -> bool {
        let before = self.observers.len();
        self.observers.retain(|(other, _)| *other != id);
        let removed = self.observers.len() != before;
        if removed {
            self.rebuild();
        }
        removed
    }

    fn rebuild(&mut self) {
        self.cached = Arc::new(self.observers.iter().map(|(_, o)| Arc::clone(o)).collect());
    }

    pub(crate) fn snapshot(&self) -> Arc<Vec<Arc<O>>> {
        Arc::clone(&self.cached)
    }

    pub(crate) fn len(&self) -> usize {
        self.observers.len()
    }
}

impl<O: ?Sized> fmt::Debug for Bus<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bus")
            .field("observers", &self.observers.len())
            .finish()
    }
}

/// The kind of store operation an [`OpObserver`] is notified about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Single-cell read ([`DataStore::get`]).
    ///
    /// [`DataStore::get`]: crate::DataStore::get
    Get,
    /// Row scan ([`DataStore::scan`]).
    ///
    /// [`DataStore::scan`]: crate::DataStore::scan
    Scan,
    /// Container snapshot ([`DataStore::snapshot`]).
    ///
    /// [`DataStore::snapshot`]: crate::DataStore::snapshot
    Snapshot,
    /// Cell insert/update ([`DataStore::put`]).
    ///
    /// [`DataStore::put`]: crate::DataStore::put
    Put,
    /// Cell removal ([`DataStore::delete`]).
    ///
    /// [`DataStore::delete`]: crate::DataStore::delete
    Delete,
}

impl OpKind {
    /// Whether the operation reads store state.
    #[must_use]
    pub fn is_read(self) -> bool {
        !self.is_write()
    }

    /// Whether the operation mutates store state.
    #[must_use]
    pub fn is_write(self) -> bool {
        matches!(self, OpKind::Put | OpKind::Delete)
    }

    /// Stable lowercase name, suitable for metric labels.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::Scan => "scan",
            OpKind::Snapshot => "snapshot",
            OpKind::Put => "put",
            OpKind::Delete => "delete",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An observer of store operation timings.
///
/// Where [`WriteObserver`] carries mutation *content*, this hook carries
/// operation *cost*: each completed store call reports its kind and
/// wall-clock duration. The telemetry layer registers one of these to
/// populate read/write counters and latency histograms without the store
/// depending on any metrics crate.
///
/// Invoked synchronously on the calling thread with the store lock
/// released; implementations must be cheap and `Send + Sync`. When no op
/// observer is registered the store skips timing entirely (one relaxed
/// atomic load per operation).
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
///
/// [`DataStore::register_op_observer`]: crate::DataStore::register_op_observer
/// [`DataStore::unregister_op_observer`]: crate::DataStore::unregister_op_observer
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpObserverHandle(pub(crate) u64);

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn closure_is_an_observer() {
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&count);
        let obs: Arc<dyn WriteObserver> = Arc::new(move |_e: &WriteEvent| {
            c2.fetch_add(1, Ordering::SeqCst);
        });
        let event = WriteEvent {
            table: "t".into(),
            family: "f".into(),
            row: "r".into(),
            qualifier: "q".into(),
            kind: WriteKind::Put,
            old: None,
            new: Some(Value::from(1.0)),
            timestamp: 1,
        };
        obs.on_write(&event.as_write_ref());
        obs.on_write(&event.as_write_ref());
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn a_view_round_trips_through_its_owned_form() {
        let event = WriteEvent {
            table: "t".into(),
            family: "f".into(),
            row: "r".into(),
            qualifier: "q".into(),
            kind: WriteKind::Delete,
            old: Some(Value::from("gone")),
            new: None,
            timestamp: 9,
        };
        assert_eq!(event.as_write_ref().to_owned(), event);
    }

    #[test]
    fn bus_register_unregister() {
        let mut bus = ObserverBus::default();
        assert_eq!(bus.len(), 0);
        let h = bus.register(Arc::new(|_: &WriteEvent| {}));
        assert_eq!(bus.len(), 1);
        assert_eq!(bus.snapshot().len(), 1);
        assert!(bus.unregister(h));
        assert!(!bus.unregister(h));
        assert_eq!(bus.len(), 0);
        assert!(bus.snapshot().is_empty());
    }
}
