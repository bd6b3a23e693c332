//! The Monitoring component: attributes data-store traffic to containers.
//!
//! SmartFlux's Monitoring analyses "all requests directed to the data store"
//! (§4). The store does the work in its own write path (a [`WatchList`]):
//! per watched container a write count and, for every tracker registered
//! with [`Monitor::track`], a **change set** — for each cell written since
//! the tracker's mark, the value it held at the mark and its latest value.
//! The [`Monitor`] names the containers and trackers, installs them in the
//! store it attaches to, and streams a tracker's change set into a metric
//! (the paper's `update(new, old)` once per changed element, §4.2), so
//! evaluating a metric costs O(cells written since the mark).

use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use smartflux_datastore::{ContainerRef, DataStore, Value, WatchList};

use crate::metric::MetricFn;

/// Handle to one change set, returned by [`Monitor::track`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrackerId(usize);

/// Attributes store mutations to watched containers.
///
/// Cheaply cloneable; all clones share state. Install on a store with
/// [`Monitor::attach`].
///
/// # Example
///
/// ```
/// use smartflux::Monitor;
/// use smartflux_datastore::{ContainerRef, DataStore, Value};
///
/// # fn main() -> Result<(), smartflux_datastore::StoreError> {
/// let store = DataStore::new();
/// let c = ContainerRef::family("t", "f");
/// store.ensure_container(&c)?;
///
/// let monitor = Monitor::new();
/// monitor.watch(c.clone());
/// monitor.attach(&store);
///
/// store.put("t", "f", "r", "q", Value::from(3.0))?;
/// assert_eq!(monitor.total_writes(&c), 1);
/// # Ok(())
/// # }
/// ```
///
/// Streaming a metric over the cells written since a mark:
///
/// ```
/// use smartflux::{MagnitudeImpact, MetricContext, MetricFn, Monitor};
/// use smartflux_datastore::{ContainerRef, DataStore, Value};
///
/// # fn main() -> Result<(), smartflux_datastore::StoreError> {
/// let store = DataStore::new();
/// let c = ContainerRef::family("t", "f");
/// store.ensure_container(&c)?;
/// store.put("t", "f", "r", "q", Value::from(3.0))?;
///
/// let monitor = Monitor::new();
/// let tracker = monitor.track(c);
/// monitor.attach(&store);
/// monitor.mark(tracker); // changes count from here
///
/// store.put("t", "f", "r", "q", Value::from(5.0))?;
/// let mut impact = MagnitudeImpact::new();
/// let cells = monitor.stream_changes(tracker, &mut impact);
/// assert_eq!(impact.compute(&MetricContext::new(cells, 0.0)), 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Monitor {
    shared: Arc<Shared>,
}

#[derive(Debug, Default)]
struct Shared {
    /// Every registration, in order: a container and, for a tracker, its
    /// id. Only registration and [`Monitor::attach`] take this lock.
    registrations: Mutex<Vec<(ContainerRef, Option<TrackerId>)>>,
    /// The store and the list the registrations live in, once attached.
    /// Set under `registrations`' lock, so each registration is installed
    /// exactly once: by `attach` when it came first, else by itself.
    attached: OnceLock<(DataStore, WatchList)>,
}

impl Monitor {
    /// Creates a monitor watching nothing.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a container to the watch list. Watching the same container
    /// twice is a no-op.
    pub fn watch(&self, container: ContainerRef) {
        self.register(container, false);
    }

    /// Watches `container` and registers a change set over it, marked at
    /// the empty container: until the first [`mark`](Self::mark), every
    /// cell counts as inserted, the cells stored when the set is installed
    /// included — at [`attach`](Self::attach), or now when already attached.
    ///
    /// Trackers are independent: each call returns a set with its own mark,
    /// also over a container that already has one.
    pub fn track(&self, container: ContainerRef) -> TrackerId {
        self.register(container, true)
    }

    /// Records a registration, installed now when attached; returns the next
    /// tracker id — this call's, when `tracked`.
    fn register(&self, container: ContainerRef, tracked: bool) -> TrackerId {
        let mut registrations = self.shared.registrations.lock();
        let next = TrackerId(registrations.iter().filter(|(_, t)| t.is_some()).count());
        let tracker = tracked.then_some(next);
        registrations.push((container.clone(), tracker));
        let attached = self.shared.attached.get();
        drop(registrations);
        if let Some((store, list)) = attached {
            store.watch(*list, &container, tracker.map(|t| t.0));
        }
        next
    }

    /// Installs every registration in `store`, whose write path attributes
    /// mutations from then on. A monitor attaches once; attaching again
    /// does nothing.
    pub fn attach(&self, store: &DataStore) {
        let list = store.watch_list();
        let registrations = {
            let registrations = self.shared.registrations.lock();
            if self.shared.attached.set((store.clone(), list)).is_err() {
                return;
            }
            registrations.clone()
        };
        for (container, tracker) in &registrations {
            store.watch(list, container, tracker.map(|t| t.0));
        }
    }

    /// Moves `tracker`'s mark to the container's current state, emptying its
    /// change set.
    pub fn mark(&self, tracker: TrackerId) {
        self.restore_changes(tracker, Vec::new());
    }

    /// Streams every cell that differs between `tracker`'s mark and now
    /// into `metric` — [`MetricFn::update`]`(new, old)` once per cell, in
    /// [`Snapshot::diff`]'s order — and returns the container's element
    /// count `n`, as [`DataStore::stream_changes`] does. `metric` runs under
    /// the store's lock and must not touch the store.
    ///
    /// [`Snapshot::diff`]: smartflux_datastore::Snapshot::diff
    pub fn stream_changes(&self, tracker: TrackerId, metric: &mut dyn MetricFn) -> usize {
        self.shared.attached.get().map_or(0, |(store, list)| {
            store.stream_changes(*list, tracker.0, |new, old| metric.update(new, old))
        })
    }

    /// Visits `tracker`'s change set in ascending `(row, qualifier)` order
    /// as `(row, qualifier, value at the mark, latest value)` — the
    /// tracker's contribution to an engine checkpoint.
    pub(crate) fn for_each_change(
        &self,
        tracker: TrackerId,
        f: impl FnMut(&str, &str, Option<&Value>, Option<&Value>),
    ) {
        if let Some((store, list)) = self.shared.attached.get() {
            store.visit_changes(*list, tracker.0, f);
        }
    }

    /// Moves `tracker`'s mark to now and records `changes` — restored from a
    /// checkpoint — as made since it. The live cell count is the store's.
    pub(crate) fn restore_changes(
        &self,
        tracker: TrackerId,
        changes: Vec<(String, String, Option<Value>, Option<Value>)>,
    ) {
        if let Some((store, list)) = self.shared.attached.get() {
            store.mark_changes(*list, tracker.0, changes);
        }
    }

    /// Total writes to `container` since it was installed as watched.
    #[must_use]
    pub fn total_writes(&self, container: &ContainerRef) -> u64 {
        self.shared
            .attached
            .get()
            .map_or(0, |(store, list)| store.watched_writes(*list, container))
    }

    /// All watched containers, in watch order.
    #[must_use]
    pub fn watched(&self) -> Vec<ContainerRef> {
        let mut watched: Vec<ContainerRef> = Vec::new();
        for (container, _) in self.shared.registrations.lock().iter() {
            if !watched.contains(container) {
                watched.push(container.clone());
            }
        }
        watched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartflux_datastore::Value;

    fn setup() -> (DataStore, Monitor, ContainerRef) {
        let store = DataStore::new();
        let c = ContainerRef::family("t", "f");
        store.ensure_container(&c).unwrap();
        let m = Monitor::new();
        m.watch(c.clone());
        m.attach(&store);
        (store, m, c)
    }

    #[test]
    fn counts_writes_in_watched_container() {
        let (store, m, c) = setup();
        store.put("t", "f", "r", "q", Value::from(1.0)).unwrap();
        store.put("t", "f", "r", "q", Value::from(4.0)).unwrap();
        assert_eq!(m.total_writes(&c), 2);
    }

    #[test]
    fn unwatched_containers_are_ignored() {
        let (store, m, _c) = setup();
        store.create_family("t", "other").unwrap();
        store.put("t", "other", "r", "q", Value::from(1.0)).unwrap();
        let other = ContainerRef::family("t", "other");
        assert_eq!(m.total_writes(&other), 0);
    }

    #[test]
    fn column_container_matches_only_its_qualifier() {
        let store = DataStore::new();
        let col = ContainerRef::column("t", "f", "a");
        store.ensure_container(&col).unwrap();
        let m = Monitor::new();
        m.watch(col.clone());
        m.attach(&store);
        store.put("t", "f", "r", "a", Value::from(1.0)).unwrap();
        store.put("t", "f", "r", "b", Value::from(1.0)).unwrap();
        assert_eq!(m.total_writes(&col), 1);
    }

    #[test]
    fn overlapping_containers_both_count() {
        let store = DataStore::new();
        let fam = ContainerRef::family("t", "f");
        let col = ContainerRef::column("t", "f", "a");
        let other_col = ContainerRef::column("t", "f", "b");
        store.ensure_container(&fam).unwrap();
        let m = Monitor::new();
        m.watch(fam.clone());
        m.watch(col.clone());
        m.watch(other_col.clone());
        m.attach(&store);
        store.put("t", "f", "r", "a", Value::from(2.0)).unwrap();
        assert_eq!(m.total_writes(&fam), 1);
        assert_eq!(m.total_writes(&col), 1);
        assert_eq!(m.total_writes(&other_col), 0);
    }

    #[test]
    fn duplicate_watch_does_not_double_count() {
        let (store, m, c) = setup();
        m.watch(c.clone());
        store.put("t", "f", "r", "q", Value::from(1.0)).unwrap();
        assert_eq!(m.total_writes(&c), 1);
        assert_eq!(m.watched().len(), 1);
    }

    /// `(element count, Eq. 1 impact)` of everything since the mark.
    fn magnitude(m: &Monitor, tracker: TrackerId) -> (usize, f64) {
        use crate::metric::{MagnitudeImpact, MetricContext};
        let mut metric = MagnitudeImpact::new();
        let total = m.stream_changes(tracker, &mut metric);
        (total, metric.compute(&MetricContext::new(total, 0.0)))
    }

    #[test]
    fn attach_counts_stored_cells_as_inserted_since_the_empty_mark() {
        let store = DataStore::new();
        let c = ContainerRef::family("t", "f");
        store.ensure_container(&c).unwrap();
        store.put("t", "f", "r1", "q", Value::from(3.0)).unwrap();
        store.put("t", "f", "r2", "q", Value::from(4.0)).unwrap();
        let m = Monitor::new();
        let tracker = m.track(c);
        m.attach(&store);
        // Two inserts of magnitude 3 and 4: (3 + 4) × m, m = 2.
        assert_eq!(magnitude(&m, tracker), (2, 14.0));
        m.mark(tracker);
        assert_eq!(magnitude(&m, tracker), (2, 0.0));
    }

    #[test]
    fn a_tracker_registered_after_attach_counts_the_stored_cells() {
        let (store, m, c) = setup();
        for row in 0..10 {
            store
                .put("t", "f", &format!("r{row}"), "q", Value::from(1.0))
                .unwrap();
        }
        let tracker = m.track(c);
        m.mark(tracker);
        store.put("t", "f", "r3", "q", Value::from(4.0)).unwrap();
        // Ten cells in the container, one of them moved by 3.
        assert_eq!(magnitude(&m, tracker), (10, 3.0));
    }

    #[test]
    fn trackers_on_one_container_mark_independently() {
        let (store, m, c) = setup();
        let early = m.track(c.clone());
        let late = m.track(c);
        store.put("t", "f", "r", "q", Value::from(1.0)).unwrap();
        m.mark(late);
        store.put("t", "f", "r", "q", Value::from(4.0)).unwrap();
        assert_eq!(magnitude(&m, early), (1, 4.0));
        assert_eq!(magnitude(&m, late), (1, 3.0));
        // A removed cell still counts towards `n` at the mark.
        store.delete("t", "f", "r", "q").unwrap();
        assert_eq!(magnitude(&m, late), (1, 1.0));
        assert_eq!(magnitude(&m, early), (0, 0.0));
    }

    #[test]
    fn change_sets_survive_export_and_restore() {
        let (store, m, c) = setup();
        let tracker = m.track(c.clone());
        store.put("t", "f", "b", "q", Value::from(1.0)).unwrap();
        m.mark(tracker);
        store.put("t", "f", "b", "q", Value::from(2.0)).unwrap();
        store.put("t", "f", "a", "q", Value::from(7.0)).unwrap();
        let mut exported = Vec::new();
        m.for_each_change(tracker, |row, qualifier, at_mark, latest| {
            exported.push((
                row.to_owned(),
                qualifier.to_owned(),
                at_mark.cloned(),
                latest.cloned(),
            ));
        });
        let row = |r: &str, old: Option<f64>, new: f64| {
            (
                r.to_owned(),
                "q".to_owned(),
                old.map(Value::from),
                Some(Value::from(new)),
            )
        };
        assert_eq!(exported, [row("a", None, 7.0), row("b", Some(1.0), 2.0)]);

        // A fresh monitor over the same store, as recovery builds one.
        let restored = Monitor::new();
        let tracker = restored.track(c);
        restored.attach(&store);
        restored.restore_changes(tracker, exported);
        assert_eq!(magnitude(&restored, tracker), magnitude(&m, tracker));
        assert_eq!(magnitude(&restored, tracker), (2, 16.0));
    }

    #[test]
    fn attribution_is_exact_with_many_watched_containers() {
        let store = DataStore::new();
        let m = Monitor::new();
        let mut fams = Vec::new();
        for i in 0..50 {
            let fam = ContainerRef::family("t", format!("f{i}"));
            store.ensure_container(&fam).unwrap();
            m.watch(fam.clone());
            m.watch(ContainerRef::column("t", format!("f{i}"), "q"));
            fams.push(fam);
        }
        m.attach(&store);
        store.put("t", "f7", "r", "q", Value::from(3.0)).unwrap();
        store
            .put("t", "f7", "r", "other", Value::from(1.0))
            .unwrap();
        for (i, fam) in fams.iter().enumerate() {
            let expected = u64::from(i == 7) * 2;
            assert_eq!(m.total_writes(fam), expected, "family f{i}");
            let col = ContainerRef::column("t", format!("f{i}"), "q");
            assert_eq!(m.total_writes(&col), u64::from(i == 7), "column f{i}:q");
        }
    }
}
