//! The Monitoring component: observes data-store traffic per container.
//!
//! SmartFlux's Monitoring analyses "all requests directed to the data store"
//! (§4). Here it registers as a [`WriteObserver`] on the store, attributes
//! every mutation to the watched containers it falls in, and keeps two
//! things per container: a cumulative write count, and — for
//! every tracker registered with [`Monitor::track`] — a **change set**: for
//! each cell written since the tracker's mark, the value it held at the mark
//! and its latest value. The QoD engine streams its impact and error metrics
//! over those touched cells only (the paper's `update(new, old)` once per
//! changed element, §4.2), so evaluating a metric costs O(cells written since
//! the mark) and resetting a baseline is clearing the set.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use smartflux_datastore::{
    ContainerRef, DataStore, ObserverHandle, Value, WriteObserver, WriteRef,
};

use crate::metric::MetricFn;

/// Marks a slot no change of the set refers to.
const UNTOUCHED: usize = usize::MAX;

/// Handle to one change set, returned by [`Monitor::track`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrackerId(usize);

/// One cell written since its change set's mark.
#[derive(Debug)]
struct Change {
    /// The cell's interned key (index into [`WatchEntry::keys`]).
    slot: usize,
    /// Timestamps of the earliest and latest events folded in. Observers are
    /// notified after the shard guard drops, so two writers of one cell can
    /// deliver out of order; the store timestamp says which `old` is the
    /// value at the mark and which `new` is the latest.
    first_ts: u64,
    last_ts: u64,
    /// Value at the mark (`None`: the cell did not exist).
    at_mark: Option<Value>,
    /// Latest value (`None`: the cell was deleted).
    latest: Option<Value>,
}

/// The cells of one container written since a mark.
#[derive(Debug)]
struct ChangeSet {
    /// Position of the watched container in [`MonitorState::entries`].
    entry: usize,
    /// Slot → index into `changes`, [`UNTOUCHED`] when unwritten since the
    /// mark; grown to a slot the first time the set sees it.
    position: Vec<usize>,
    changes: Vec<Change>,
    /// Whether `changes` is in ascending key order.
    sorted: bool,
}

impl ChangeSet {
    fn new(entry: usize) -> Self {
        Self {
            entry,
            position: Vec::new(),
            changes: Vec::new(),
            sorted: true,
        }
    }

    /// Folds one write of the cell interned at `slot` into the set.
    fn fold_write(&mut self, slot: usize, old: Option<&Value>, new: Option<&Value>, ts: u64) {
        if self.position.len() <= slot {
            self.position.resize(slot + 1, UNTOUCHED);
        }
        let at = self.position[slot];
        if at == UNTOUCHED {
            self.position[slot] = self.changes.len();
            self.changes.push(Change {
                slot,
                first_ts: ts,
                last_ts: ts,
                at_mark: old.cloned(),
                latest: new.cloned(),
            });
            self.sorted = false;
            return;
        }
        let change = &mut self.changes[at];
        if ts >= change.last_ts {
            change.latest = new.cloned();
            change.last_ts = ts;
        }
        if ts < change.first_ts {
            change.at_mark = old.cloned();
            change.first_ts = ts;
        }
    }

    /// Moves the mark to now: nothing has changed since.
    fn clear(&mut self) {
        for change in &self.changes {
            self.position[change.slot] = UNTOUCHED;
        }
        self.changes.clear();
        self.sorted = true;
    }

    /// Puts `changes` in ascending `(row, qualifier)` order, by whichever
    /// of two routes the set's own size says is cheaper; both produce the
    /// one order a total order over distinct keys has.
    ///
    /// A set that touches at least half of a fully ranked container walks
    /// the container's rank order and picks its own cells out — no
    /// comparison at all, at most two steps per cell (`lrb/positions`: all
    /// 720 cells, every wave). Any other set is sorted by rank with the
    /// *stable* sort, because that one is adaptive: a Cancel-mode set is an
    /// ordered prefix (everything up to the previous evaluation) plus a few
    /// appended cells, which it re-orders in about one pass. The unstable
    /// sort is faster on shuffled input and was measured 4–7 % slower on
    /// `pagerank_wide` for exactly that reason (DESIGN.md §5.8).
    fn sort(&mut self, entry: &mut WatchEntry) {
        if self.sorted {
            return;
        }
        entry.rank_keys_if_paid_for();
        if entry.fully_ranked() && 2 * self.changes.len() >= entry.by_rank.len() {
            let mut next = 0;
            for &slot in &entry.by_rank {
                if let Some(at) = self.position.get_mut(slot) {
                    if *at != UNTOUCHED {
                        *at = next;
                        next += 1;
                    }
                }
            }
            // `position` now holds where each change belongs; every swap
            // puts one change there for good.
            for i in 0..self.changes.len() {
                loop {
                    let target = self.position[self.changes[i].slot];
                    if target == i {
                        break;
                    }
                    self.changes.swap(i, target);
                }
            }
        } else {
            let mut by_string = 0;
            self.changes
                .sort_by(|a, b| entry.cmp_slots(a.slot, b.slot, &mut by_string));
            entry.string_compares += by_string;
            for (at, change) in self.changes.iter().enumerate() {
                self.position[change.slot] = at;
            }
        }
        self.sorted = true;
    }
}

/// One watched container.
#[derive(Debug)]
struct WatchEntry {
    container: ContainerRef,
    /// Writes observed since watching began.
    total_writes: u64,
    /// Interned cell keys, `row 0xFF qualifier → slot` (0xFF occurs in no
    /// UTF-8 string, so the joined key is unambiguous): a write to a cell
    /// seen before finds its slot by one lookup, allocating nothing.
    slots: HashMap<Vec<u8>, usize>,
    /// The joined key of the write being looked up, reused across writes.
    joined_key: Vec<u8>,
    /// Slot → `(row, qualifier)`.
    keys: Vec<(String, String)>,
    /// The slot of the write before this one. Slots are interned in
    /// first-arrival order and a continuous workflow's writes arrive in that
    /// order again every wave, so the next write is most often the key one
    /// slot on, else the same key: found by comparing, not by hashing.
    last_slot: usize,
    /// Test switch: every lookup takes the hash path, the finger's oracle.
    #[cfg(test)]
    hash_only: bool,
    /// The first `by_rank.len()` slots in ascending `(row, qualifier)`
    /// order, and its inverse `rank[slot]`: two ranked keys compare as two
    /// integers. Slots interned since the last ranking are in neither and
    /// compare by string.
    by_rank: Vec<usize>,
    rank: Vec<usize>,
    /// String comparisons made since the last ranking because a key was
    /// unranked — what not ranking has cost so far.
    string_compares: usize,
    /// Cells currently in the container. Signed: a delete can be delivered
    /// ahead of the insert it follows.
    live_cells: i64,
    /// The change sets over this container (indices into
    /// [`MonitorState::change_sets`]). Keys and the live count are only
    /// maintained while there is one.
    trackers: Vec<usize>,
}

impl WatchEntry {
    fn new(container: ContainerRef) -> Self {
        Self {
            container,
            total_writes: 0,
            slots: HashMap::new(),
            joined_key: Vec::new(),
            keys: Vec::new(),
            last_slot: 0,
            #[cfg(test)]
            hash_only: false,
            by_rank: Vec::new(),
            rank: Vec::new(),
            string_compares: 0,
            live_cells: 0,
            trackers: Vec::new(),
        }
    }

    /// The slot of `(row, qualifier)`, interning the key when it is new.
    fn slot(&mut self, row: &str, qualifier: &str) -> usize {
        #[cfg(test)]
        if self.hash_only {
            return self.hashed_slot(row, qualifier);
        }
        let is_at = |slot: usize| {
            self.keys
                .get(slot)
                .is_some_and(|(r, q)| r == row && q == qualifier)
        };
        let next = self.last_slot + 1;
        let slot = if is_at(next) {
            next
        } else if is_at(self.last_slot) {
            self.last_slot
        } else {
            self.hashed_slot(row, qualifier)
        };
        self.last_slot = slot;
        slot
    }

    /// [`slot`](Self::slot) by the joined key's hash.
    fn hashed_slot(&mut self, row: &str, qualifier: &str) -> usize {
        self.joined_key.clear();
        self.joined_key.extend_from_slice(row.as_bytes());
        self.joined_key.push(0xFF);
        self.joined_key.extend_from_slice(qualifier.as_bytes());
        if let Some(&slot) = self.slots.get(self.joined_key.as_slice()) {
            return slot;
        }
        let slot = self.keys.len();
        self.slots.insert(self.joined_key.clone(), slot);
        self.keys.push((row.to_owned(), qualifier.to_owned()));
        slot
    }

    fn fully_ranked(&self) -> bool {
        self.by_rank.len() == self.keys.len()
    }

    /// Orders two slots as their keys order: by rank when both have one.
    fn cmp_slots(&self, a: usize, b: usize, by_string: &mut usize) -> Ordering {
        match (self.rank.get(a), self.rank.get(b)) {
            (Some(a), Some(b)) => a.cmp(b),
            _ => {
                *by_string += 1;
                self.keys[a].cmp(&self.keys[b])
            }
        }
    }

    /// Ranks every key interned so far, once the string comparisons made
    /// for want of a rank have cost as much as ranking does (about
    /// `n log n` of them). Renting until the rent equals the price is within
    /// a factor two of the best schedule whatever the key set does: a fixed
    /// set is ranked after its first evaluation and for good, and a set that
    /// gains keys every wave is re-ranked ever more rarely, not every wave.
    fn rank_keys_if_paid_for(&mut self) {
        let n = self.keys.len();
        if self.fully_ranked() || self.string_compares < n * n.max(2).ilog2() as usize {
            return;
        }
        let keys = &self.keys;
        self.by_rank.clear();
        self.by_rank.extend(0..n);
        self.by_rank
            .sort_unstable_by(|&a, &b| keys[a].cmp(&keys[b]));
        self.rank.resize(n, 0);
        for (rank, &slot) in self.by_rank.iter().enumerate() {
            self.rank[slot] = rank;
        }
        self.string_compares = 0;
    }

    /// Folds one write into the live count and every change set.
    fn fold_write(
        &mut self,
        change_sets: &mut [ChangeSet],
        row: &str,
        qualifier: &str,
        old: Option<&Value>,
        new: Option<&Value>,
        ts: u64,
    ) {
        self.live_cells += i64::from(new.is_some()) - i64::from(old.is_some());
        let slot = self.slot(row, qualifier);
        for &t in &self.trackers {
            change_sets[t].fold_write(slot, old, new, ts);
        }
    }
}

/// The watched containers over one `(table, family)`: a family-level
/// watcher plus any column-level ones.
#[derive(Debug)]
struct FamilyWatch {
    table: String,
    family: String,
    /// Positions in [`MonitorState::entries`].
    entries: Vec<usize>,
}

#[derive(Debug, Default)]
struct MonitorState {
    /// Watched containers, in watch order.
    entries: Vec<WatchEntry>,
    /// One element per watched `(table, family)`.
    families: Vec<FamilyWatch>,
    /// `table → family → position in families`: attributes a mutation
    /// without scanning every watched container. [`Monitor::on_write`]
    /// only comes here when the write left the family of the one before
    /// it; a step's run of cells into one family costs two string
    /// comparisons each.
    by_family: HashMap<String, HashMap<String, usize>>,
    /// The family the previous attributed write resolved to.
    last_family: usize,
    /// Exact-container lookup for the read-side accessors.
    index: HashMap<ContainerRef, usize>,
    /// Every registered change set, indexed by [`TrackerId`].
    change_sets: Vec<ChangeSet>,
}

impl MonitorState {
    /// Position of `container`'s entry, adding it to the watch list first
    /// when it is new.
    fn watch(&mut self, container: ContainerRef) -> usize {
        if let Some(&pos) = self.index.get(&container) {
            return pos;
        }
        let pos = self.entries.len();
        let families = &mut self.families;
        let family = *self
            .by_family
            .entry(container.table().to_owned())
            .or_default()
            .entry(container.family_name().to_owned())
            .or_insert_with(|| {
                families.push(FamilyWatch {
                    table: container.table().to_owned(),
                    family: container.family_name().to_owned(),
                    entries: Vec::new(),
                });
                families.len() - 1
            });
        self.families[family].entries.push(pos);
        self.index.insert(container.clone(), pos);
        self.entries.push(WatchEntry::new(container));
        pos
    }

    /// The watchers over `(table, family)`, if any.
    fn family_watch(&mut self, table: &str, family: &str) -> Option<usize> {
        if self
            .families
            .get(self.last_family)
            .is_some_and(|f| f.family == family && f.table == table)
        {
            return Some(self.last_family);
        }
        let found = *self.by_family.get(table)?.get(family)?;
        self.last_family = found;
        Some(found)
    }
}

/// Observes store mutations and attributes them to watched containers.
///
/// Cheaply cloneable; all clones share state. Register on a store with
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
/// let _handle = monitor.attach(&store);
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
/// let _handle = monitor.attach(&store);
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
    state: Arc<Mutex<MonitorState>>,
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
        self.state.lock().watch(container);
    }

    /// Watches `container` and registers a change set over it, marked at
    /// the empty container: until the first [`mark`](Self::mark), every
    /// cell counts as inserted. Track before [`attach`](Self::attach), which
    /// is what tells the set about the cells already stored.
    ///
    /// Trackers are independent: each call returns a set with its own mark,
    /// also over a container that already has one.
    pub fn track(&self, container: ContainerRef) -> TrackerId {
        let mut s = self.state.lock();
        let entry = s.watch(container);
        let id = s.change_sets.len();
        s.change_sets.push(ChangeSet::new(entry));
        s.entries[entry].trackers.push(id);
        TrackerId(id)
    }

    /// Registers this monitor as an observer on `store` and records the
    /// cells every tracked container already holds as inserted since the
    /// (empty) mark. Attach while the store is quiescent: a write racing
    /// the registration may be counted twice. Keep the returned handle to
    /// unregister later.
    pub fn attach(&self, store: &DataStore) -> ObserverHandle {
        let observer: Arc<dyn WriteObserver> = Arc::new(self.clone());
        let handle = store.register_observer(observer);
        let tracked: Vec<(usize, ContainerRef)> = {
            let s = self.state.lock();
            s.entries
                .iter()
                .enumerate()
                .filter(|(_, e)| !e.trackers.is_empty())
                .map(|(pos, e)| (pos, e.container.clone()))
                .collect()
        };
        for (pos, container) in tracked {
            // Copied out under the shard guard alone, folded in under the
            // monitor lock alone: the two are never nested. A container
            // that does not exist yet holds no cells.
            let cells = store
                .fold_cells(
                    &container,
                    Vec::new(),
                    |mut cells, row, qualifier, value| {
                        cells.push((row.to_owned(), qualifier.to_owned(), value.clone()));
                        cells
                    },
                )
                .unwrap_or_default();
            let mut s = self.state.lock();
            let MonitorState {
                entries,
                change_sets,
                ..
            } = &mut *s;
            for (row, qualifier, value) in &cells {
                entries[pos].fold_write(change_sets, row, qualifier, None, Some(value), 0);
            }
        }
        handle
    }

    /// Moves `tracker`'s mark to the container's current state, emptying its
    /// change set.
    pub fn mark(&self, tracker: TrackerId) {
        if let Some(set) = self.state.lock().change_sets.get_mut(tracker.0) {
            set.clear();
        }
    }

    /// Streams every cell that differs between `tracker`'s mark and now
    /// into `metric` — [`MetricFn::update`]`(new, old)` once per cell, cells
    /// still present in ascending `(row, qualifier)` order, then cells
    /// removed since the mark in the same order, the order
    /// [`Snapshot::diff`] lists changes in — and returns the container's
    /// element count `n`: the larger of its cell counts at the mark and now.
    ///
    /// `metric` runs under the monitor's lock and must not touch the store.
    ///
    /// [`Snapshot::diff`]: smartflux_datastore::Snapshot::diff
    pub fn stream_changes(&self, tracker: TrackerId, metric: &mut dyn MetricFn) -> usize {
        self.with_ordered_changes(tracker, |entry, changes| {
            let mut at_mark_cells = entry.live_cells;
            for change in changes {
                at_mark_cells +=
                    i64::from(change.at_mark.is_some()) - i64::from(change.latest.is_some());
                if let Some(new) = &change.latest {
                    if change.at_mark.as_ref() != Some(new) {
                        metric.update(Some(new), change.at_mark.as_ref());
                    }
                }
            }
            for change in changes {
                if let (Some(old), None) = (&change.at_mark, &change.latest) {
                    metric.update(None, Some(old));
                }
            }
            usize::try_from(entry.live_cells.max(at_mark_cells)).unwrap_or(0)
        })
        .unwrap_or(0)
    }

    /// Visits `tracker`'s change set in ascending `(row, qualifier)` order
    /// as `(row, qualifier, value at the mark, latest value)` — the
    /// tracker's contribution to an engine checkpoint.
    pub(crate) fn for_each_change(
        &self,
        tracker: TrackerId,
        mut f: impl FnMut(&str, &str, Option<&Value>, Option<&Value>),
    ) {
        self.with_ordered_changes(tracker, |entry, changes| {
            for change in changes {
                let (row, qualifier) = &entry.keys[change.slot];
                f(
                    row,
                    qualifier,
                    change.at_mark.as_ref(),
                    change.latest.as_ref(),
                );
            }
        });
    }

    /// Runs `f` on `tracker`'s container and its changes in ascending key
    /// order, under the monitor's lock; `None` for an unknown tracker.
    fn with_ordered_changes<R>(
        &self,
        tracker: TrackerId,
        f: impl FnOnce(&WatchEntry, &[Change]) -> R,
    ) -> Option<R> {
        let mut s = self.state.lock();
        let MonitorState {
            entries,
            change_sets,
            ..
        } = &mut *s;
        let set = change_sets.get_mut(tracker.0)?;
        let entry = &mut entries[set.entry];
        set.sort(entry);
        Some(f(entry, &set.changes))
    }

    /// Replaces `tracker`'s change set with one restored from a checkpoint.
    /// The live cell count is not part of it: [`attach`](Self::attach)
    /// counted the recovered store.
    pub(crate) fn restore_changes(
        &self,
        tracker: TrackerId,
        changes: Vec<(String, String, Option<Value>, Option<Value>)>,
    ) {
        let mut s = self.state.lock();
        let MonitorState {
            entries,
            change_sets,
            ..
        } = &mut *s;
        let Some(set) = change_sets.get_mut(tracker.0) else {
            return;
        };
        set.clear();
        let entry = set.entry;
        for (row, qualifier, at_mark, latest) in changes {
            let slot = entries[entry].slot(&row, &qualifier);
            // Restored changes predate every write the recovered store will
            // see, hence timestamp 0.
            change_sets[tracker.0].fold_write(slot, at_mark.as_ref(), latest.as_ref(), 0);
        }
    }

    /// Test switch: every container watched so far finds its slots by hash
    /// alone — the finger's oracle.
    #[cfg(test)]
    pub(crate) fn hash_only(&self) {
        for entry in &mut self.state.lock().entries {
            entry.hash_only = true;
        }
    }

    /// Total writes observed for `container` since watching began.
    #[must_use]
    pub fn total_writes(&self, container: &ContainerRef) -> u64 {
        let s = self.state.lock();
        s.index
            .get(container)
            .map_or(0, |&i| s.entries[i].total_writes)
    }

    /// All watched containers, in watch order.
    #[must_use]
    pub fn watched(&self) -> Vec<ContainerRef> {
        self.state
            .lock()
            .entries
            .iter()
            .map(|e| e.container.clone())
            .collect()
    }
}

impl WriteObserver for Monitor {
    fn on_write(&self, event: &WriteRef<'_>) {
        // Hot path: one event per store mutation, read in place — nothing
        // of it is copied unless a change set keeps a value. Attribution
        // narrows the candidates to the containers over the written family,
        // so cost does not grow with the number of watched containers.
        let mut s = self.state.lock();
        let Some(family) = s.family_watch(event.table, event.family) else {
            return;
        };
        let MonitorState {
            entries,
            families,
            change_sets,
            ..
        } = &mut *s;
        for &pos in &families[family].entries {
            let entry = &mut entries[pos];
            if entry
                .container
                .qualifier()
                .is_some_and(|q| q != event.qualifier)
            {
                continue;
            }
            entry.total_writes += 1;
            if !entry.trackers.is_empty() {
                entry.fold_write(
                    change_sets,
                    event.row,
                    event.qualifier,
                    event.old,
                    event.new,
                    event.timestamp,
                );
            }
        }
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

    mod finger {
        //! The slot finger against the hash path it shortcuts: write streams
        //! built to defeat it leave the same change sets, in the same order.

        use proptest::prelude::*;

        use super::super::*;
        use crate::metric::{MetricContext, MetricFn};

        const ROWS: usize = 6;
        const QUALIFIERS: [&str; 3] = ["a", "b", "c"];

        type Exported = Vec<(String, String, Option<Value>, Option<Value>)>;
        type Streamed = Vec<(Option<Value>, Option<Value>)>;

        /// Keeps the `update(new, old)` calls it is streamed, in order.
        #[derive(Default)]
        struct Recorder(Streamed);

        impl MetricFn for Recorder {
            fn reset(&mut self) {
                self.0.clear();
            }

            fn update(&mut self, new: Option<&Value>, old: Option<&Value>) {
                self.0.push((new.cloned(), old.cloned()));
            }

            fn compute(&self, _ctx: &MetricContext) -> f64 {
                self.0.len() as f64
            }
        }

        /// A store, a monitor over it and the monitor's trackers: one over
        /// the family, one over a column of it.
        struct Side {
            store: DataStore,
            monitor: Monitor,
            trackers: [TrackerId; 2],
        }

        impl Side {
            fn over(store: DataStore, hash_only: bool) -> Self {
                let monitor = Monitor::new();
                let trackers = [
                    monitor.track(ContainerRef::family("t", "f")),
                    monitor.track(ContainerRef::column("t", "f", "b")),
                ];
                if hash_only {
                    monitor.hash_only();
                }
                monitor.attach(&store);
                Self {
                    store,
                    monitor,
                    trackers,
                }
            }

            fn new(hash_only: bool) -> Self {
                let store = DataStore::new();
                store
                    .ensure_container(&ContainerRef::family("t", "f"))
                    .unwrap();
                Self::over(store, hash_only)
            }

            fn exported(&self, tracker: TrackerId) -> Exported {
                let mut out = Vec::new();
                self.monitor
                    .for_each_change(tracker, |row, qualifier, at_mark, latest| {
                        out.push((
                            row.to_owned(),
                            qualifier.to_owned(),
                            at_mark.cloned(),
                            latest.cloned(),
                        ));
                    });
                out
            }

            /// Everything a tracker shows: element count, streamed updates,
            /// exported changes.
            fn view(&self) -> Vec<(usize, Streamed, Exported)> {
                self.trackers
                    .iter()
                    .map(|&t| {
                        let mut streamed = Recorder::default();
                        let n = self.monitor.stream_changes(t, &mut streamed);
                        (n, streamed.0, self.exported(t))
                    })
                    .collect()
            }

            /// A monitor as recovery builds one: a fresh one over the same
            /// store, its change sets restored — slots interned in key order,
            /// whatever order the writes arrived in.
            fn recovered(&self, hash_only: bool) -> Self {
                let next = Self::over(self.store.clone(), hash_only);
                for (&from, &to) in self.trackers.iter().zip(&next.trackers) {
                    next.monitor.restore_changes(to, self.exported(from));
                }
                next
            }
        }

        /// One write: `(row, qualifier, delete?)`.
        type Write = (usize, usize, bool);

        /// One wave of a stream: the cells of the `rows` first rows in the
        /// order `walk` names — in key order, reversed, two cells turn about,
        /// or as generated — with the generated `extra` writes (new keys,
        /// deletes) spliced into the middle.
        fn wave(walk: usize, rows: usize, extra: &[Write]) -> Vec<Write> {
            let cells: Vec<Write> = (0..rows)
                .flat_map(|r| (0..QUALIFIERS.len()).map(move |q| (r, q, false)))
                .collect();
            let mut wave: Vec<Write> = match walk {
                0 => cells,
                1 => cells.into_iter().rev().collect(),
                2 => (0..cells.len())
                    .map(|i| [cells[0], cells[cells.len() - 1]][i % 2])
                    .collect(),
                _ => Vec::new(),
            };
            let middle = wave.len() / 2;
            wave.splice(middle..middle, extra.iter().copied());
            wave
        }

        fn apply(sides: &[&Side], wave: &[Write], stamp: &mut f64) {
            for &(row, qualifier, delete) in wave {
                *stamp += 1.0;
                for side in sides {
                    let (row, qualifier) = (format!("r{row}"), QUALIFIERS[qualifier]);
                    if delete {
                        side.store.delete("t", "f", &row, qualifier).unwrap();
                    } else {
                        side.store
                            .put("t", "f", &row, qualifier, Value::from(*stamp))
                            .unwrap();
                    }
                }
            }
        }

        proptest! {
            #[test]
            fn the_finger_changes_nothing_a_tracker_shows(
                waves in prop::collection::vec(
                    (
                        0usize..4,
                        1usize..ROWS,
                        prop::collection::vec((0..ROWS, 0..QUALIFIERS.len(), any::<bool>()), 0..8),
                        any::<bool>(),
                    ),
                    1..12,
                ),
                recover_at in 0usize..12,
            ) {
                let (mut fingered, mut hashed) = (Side::new(false), Side::new(true));
                let mut stamp = 0.0;
                for (at, (walk, rows, extra, mark)) in waves.iter().enumerate() {
                    if at == recover_at {
                        (fingered, hashed) = (fingered.recovered(false), hashed.recovered(true));
                        prop_assert_eq!(fingered.view(), hashed.view());
                    }
                    apply(&[&fingered, &hashed], &wave(*walk, *rows, extra), &mut stamp);
                    prop_assert_eq!(fingered.view(), hashed.view());
                    if *mark {
                        for side in [&fingered, &hashed] {
                            side.monitor.mark(side.trackers[at % 2]);
                        }
                    }
                }
            }
        }

        #[test]
        fn a_finger_hit_leaves_the_joined_key_alone() {
            let side = Side::new(false);
            let mut stamp = 0.0;
            apply(&[&side], &wave(0, ROWS, &[]), &mut stamp);
            // The next wave writes a prefix of the same cells in the same
            // order: its first write misses (the finger is on the last slot)
            // and is found by hash; every one after it is the slot one on.
            apply(&[&side], &wave(0, 2, &[]), &mut stamp);
            let s = side.monitor.state.lock();
            let family = &s.entries[0];
            assert_eq!(family.joined_key, b"r0\xFFa");
            assert_eq!(family.last_slot, 2 * QUALIFIERS.len() - 1);
            assert_eq!(family.keys.len(), ROWS * QUALIFIERS.len());
        }
    }
}
