//! Change sets, derived in the write path (DESIGN.md §5.8).
//!
//! Each write is folded, under the write guard it already holds and with
//! the displaced value in hand, into the open **change sets** over its
//! family — opened by [`DataStore::watch`] — each keeping, for every cell
//! written since the set's mark, the value it held at the mark and its
//! latest value. The fold runs in apply order whatever the number of
//! writers, and it is the store's own code: nothing foreign runs under the
//! guard on a write. A client (the engine) keeps its watches and change
//! sets in a [`WatchList`], and pauses a set it will not read for a while
//! ([`DataStore::pause_changes`]): a paused set folds nothing until its
//! next mark, and a write to a family with no open set over it costs what
//! an unwatched write does.

use std::cmp::Ordering;
use std::collections::HashMap;

use super::{addr, DataStore, Tables};
use crate::container::ContainerRef;
use crate::table::ColumnFamily;
use crate::value::Value;

/// Marks a slot no change of the set refers to, and a change-set number not
/// opened yet.
const UNTOUCHED: usize = usize::MAX;

/// One client's watched containers and change sets in a store, opened by
/// [`DataStore::watch_list`]. Change sets are numbered by the client,
/// within its list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WatchList(usize);

/// One cell written since its change set's mark.
#[derive(Debug)]
struct Change {
    /// The cell's interned key (index into [`WatchEntry::keys`]).
    slot: usize,
    /// Value at the mark (`None`: the cell did not exist).
    at_mark: Option<Value>,
    /// Latest value (`None`: the cell was deleted).
    latest: Option<Value>,
}

/// The cells of one container written since a mark.
#[derive(Debug)]
struct ChangeSet {
    /// Position of the watched container in [`Changes::entries`].
    entry: usize,
    /// Slot → index into `changes`, [`UNTOUCHED`] when unwritten since the
    /// mark; grown to a slot the first time the set sees it.
    position: Vec<usize>,
    changes: Vec<Change>,
    /// Whether `changes` is in ascending key order.
    sorted: bool,
    /// Paused: not among its container's open sets, so no write folds into
    /// it, and it holds nothing until a mark reopens it.
    paused: bool,
}

impl ChangeSet {
    fn new(entry: usize) -> Self {
        Self {
            entry,
            position: Vec::new(),
            changes: Vec::new(),
            sorted: true,
            paused: false,
        }
    }

    /// Folds one write of the cell interned at `slot` into the set. Writes
    /// arrive in apply order, so the first one since the mark displaced the
    /// value at the mark and the last one left the latest.
    fn fold_write(&mut self, slot: usize, old: Option<&Value>, new: Option<&Value>) {
        if self.position.len() <= slot {
            self.position.resize(slot + 1, UNTOUCHED);
        }
        let at = self.position[slot];
        if at == UNTOUCHED {
            self.position[slot] = self.changes.len();
            self.changes.push(Change {
                slot,
                at_mark: old.cloned(),
                latest: new.cloned(),
            });
            self.sorted = false;
        } else {
            self.changes[at].latest = new.cloned();
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
    /// The family's slot in [`Tables::families`]; `None` until the family
    /// is created.
    family: Option<usize>,
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
    /// Cells currently in the container, counted when the first change set
    /// over it opens or reopens.
    live_cells: usize,
    /// The open change sets over this container (indices into
    /// [`Changes::change_sets`]); a paused one is not among them. Keys and
    /// the live count are only maintained while there is one.
    trackers: Vec<usize>,
}

impl WatchEntry {
    fn new(container: ContainerRef, family: Option<usize>) -> Self {
        Self {
            container,
            family,
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

    /// Whether a cell under `qualifier` of the watched family is in the
    /// container.
    fn holds(&self, qualifier: &str) -> bool {
        self.container.qualifier().is_none_or(|q| q == qualifier)
    }

    /// The container's cells stored in `families` now.
    fn count_live(&self, families: &[ColumnFamily]) -> usize {
        let Some(family) = self.family.and_then(|f| families.get(f)) else {
            return 0;
        };
        family
            .iter()
            .map(|(_, cells)| cells.iter().filter(|(q, _, _)| self.holds(q)).count())
            .sum()
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
}

/// One client's registrations.
#[derive(Debug, Default)]
struct List {
    /// Its watched containers (indices into [`Changes::entries`]), in watch
    /// order.
    entries: Vec<usize>,
    /// Change-set number → index into [`Changes::change_sets`],
    /// [`UNTOUCHED`] for a number not opened yet.
    change_sets: Vec<usize>,
}

/// Every watch and change set of the store, inside its one lock.
#[derive(Debug, Default)]
pub(super) struct Changes {
    /// Family slot → the watched containers over that family (indices into
    /// `entries`): a write finds its watchers by the slot it resolved.
    by_family: Vec<Vec<usize>>,
    entries: Vec<WatchEntry>,
    change_sets: Vec<ChangeSet>,
    lists: Vec<List>,
}

impl Changes {
    /// The containers watching the family at `family`, looked up once for
    /// the writes about to be applied to it; `None` when none has an open
    /// change set, so a write no set folds keeps no copy of its value.
    #[inline]
    pub(super) fn watching(&mut self, family: usize) -> Option<Watching<'_>> {
        let Self {
            by_family,
            entries,
            change_sets,
            ..
        } = self;
        let containers = by_family
            .get(family)
            .filter(|watchers| watchers.iter().any(|&e| !entries[e].trackers.is_empty()))?;
        Some(Watching {
            containers,
            entries,
            change_sets,
        })
    }

    /// Watches by name that waited for `(table, family)` start watching the
    /// family just created at `slot`.
    pub(super) fn bind(&mut self, table: &str, family: &str, slot: usize) {
        for (e, entry) in self.entries.iter_mut().enumerate() {
            let container = &entry.container;
            if entry.family.is_none()
                && container.table() == table
                && container.family_name() == family
            {
                entry.family = Some(slot);
                watchers(&mut self.by_family, slot).push(e);
            }
        }
    }

    /// The entry of `container` in `list`, if the list watches it.
    fn find(&self, list: usize, container: &ContainerRef) -> Option<usize> {
        let entries = &self.lists.get(list)?.entries;
        entries
            .iter()
            .copied()
            .find(|&e| self.entries[e].container == *container)
    }

    /// The entry of `container` in `list`, added when new.
    fn entry(&mut self, list: usize, container: &ContainerRef, family: Option<usize>) -> usize {
        if let Some(e) = self.find(list, container) {
            return e;
        }
        let e = self.entries.len();
        self.entries
            .push(WatchEntry::new(container.clone(), family));
        if let Some(slot) = family {
            watchers(&mut self.by_family, slot).push(e);
        }
        self.lists[list].entries.push(e);
        e
    }

    /// Opens change set `number` of `list` over `entry`, marked at the
    /// empty container: the cells `families` already hold are inserted
    /// since the mark, and the live count starts from them.
    fn open(&mut self, list: usize, number: usize, entry: usize, families: &[ColumnFamily]) {
        let set = self.change_sets.len();
        self.change_sets.push(ChangeSet::new(entry));
        let numbers = &mut self.lists[list].change_sets;
        if numbers.len() <= number {
            numbers.resize(number + 1, UNTOUCHED);
        }
        numbers[number] = set;
        let watched = &mut self.entries[entry];
        watched.trackers.push(set);
        watched.live_cells = 0;
        let Some(family) = watched.family.and_then(|f| families.get(f)) else {
            return;
        };
        for (row, cells) in family.iter() {
            for (qualifier, _, value) in cells.iter() {
                if watched.holds(qualifier) {
                    watched.live_cells += 1;
                    let slot = watched.slot(row, qualifier);
                    self.change_sets[set].fold_write(slot, None, Some(value));
                }
            }
        }
    }

    /// Change set `number` of `list` and its container, in ascending key
    /// order; `None` when no such set is open, or it is paused.
    fn ordered(&mut self, list: WatchList, number: usize) -> Option<(&WatchEntry, &[Change])> {
        let set = self.set(list, number)?;
        let set = &mut self.change_sets[set];
        if set.paused {
            return None;
        }
        let entry = &mut self.entries[set.entry];
        set.sort(entry);
        Some((entry, &set.changes))
    }

    fn set(&self, list: WatchList, number: usize) -> Option<usize> {
        let set = *self.lists.get(list.0)?.change_sets.get(number)?;
        (set != UNTOUCHED).then_some(set)
    }
}

/// The containers watching one family, found by
/// [`Changes::watching`] before a run of writes to it.
pub(super) struct Watching<'a> {
    /// The watched containers over the family (indices into `entries`).
    containers: &'a [usize],
    entries: &'a mut [WatchEntry],
    change_sets: &'a mut [ChangeSet],
}

impl Watching<'_> {
    /// Folds one applied write into every container watching it with an
    /// open change set: its live count and each of those sets.
    pub(super) fn fold(
        &mut self,
        row: &str,
        qualifier: &str,
        old: Option<&Value>,
        new: Option<&Value>,
    ) {
        for &e in self.containers {
            let entry = &mut self.entries[e];
            if entry.trackers.is_empty() || !entry.holds(qualifier) {
                continue;
            }
            entry.live_cells = (entry.live_cells + usize::from(new.is_some()))
                .saturating_sub(usize::from(old.is_some()));
            let slot = entry.slot(row, qualifier);
            for &t in &entry.trackers {
                self.change_sets[t].fold_write(slot, old, new);
            }
        }
    }
}

/// The watchers of the family at `slot`, grown to it.
fn watchers(by_family: &mut Vec<Vec<usize>>, slot: usize) -> &mut Vec<usize> {
    if by_family.len() <= slot {
        by_family.resize_with(slot + 1, Vec::new);
    }
    &mut by_family[slot]
}

impl DataStore {
    /// Opens an empty [`WatchList`].
    #[must_use]
    pub fn watch_list(&self) -> WatchList {
        let mut data = self.lock_write();
        let lists = &mut data.changes.lists;
        lists.push(List::default());
        WatchList(lists.len() - 1)
    }

    /// Watches `container` in `list`. With `change_set: Some(number)` it
    /// opens the list's change set `number` over the container, marked at
    /// the empty container: until its first
    /// [`mark_changes`](Self::mark_changes) every cell counts as inserted,
    /// the cells stored now included. A watch without an open set folds
    /// nothing.
    ///
    /// Watching a container twice in one list is one watch; change sets are
    /// independent, also over one container, and a number names one set.
    /// A container whose family does not exist yet is watched from the
    /// family's creation on. An unknown list is ignored.
    pub fn watch(&self, list: WatchList, container: &ContainerRef, change_set: Option<usize>) {
        let mut data = self.lock_write();
        let family = data.slot(&addr(container.table(), container.family_name()));
        let Tables {
            families, changes, ..
        } = &mut *data;
        if list.0 >= changes.lists.len() {
            return;
        }
        let entry = changes.entry(list.0, container, family);
        if let Some(number) = change_set {
            changes.open(list.0, number, entry, families);
        }
    }

    /// Streams every cell that differs between the change set's mark and
    /// now into `update(new, old)` — cells still present in ascending
    /// `(row, qualifier)` order, then cells removed since the mark in the
    /// same order, the order [`Snapshot::diff`] lists changes in — and
    /// returns the container's element count `n`: the larger of its cell
    /// counts at the mark and now. 0 for a set not open.
    ///
    /// `update` runs under the store's write guard (ordering the set is a
    /// mutation), so it must not call back into the store: that deadlocks.
    ///
    /// [`Snapshot::diff`]: crate::Snapshot::diff
    pub fn stream_changes(
        &self,
        list: WatchList,
        change_set: usize,
        mut update: impl FnMut(Option<&Value>, Option<&Value>),
    ) -> usize {
        let mut data = self.lock_write();
        let Some((entry, changes)) = data.changes.ordered(list, change_set) else {
            return 0;
        };
        let (mut at_mark, mut latest) = (0, 0);
        for change in changes {
            at_mark += usize::from(change.at_mark.is_some());
            latest += usize::from(change.latest.is_some());
            if let Some(new) = &change.latest {
                if change.at_mark.as_ref() != Some(new) {
                    update(Some(new), change.at_mark.as_ref());
                }
            }
        }
        for change in changes {
            if let (Some(old), None) = (&change.at_mark, &change.latest) {
                update(None, Some(old));
            }
        }
        let at_mark_cells = (entry.live_cells + at_mark).saturating_sub(latest);
        entry.live_cells.max(at_mark_cells)
    }

    /// Visits the change set in ascending `(row, qualifier)` order as
    /// `(row, qualifier, value at the mark, latest value)` — what a
    /// checkpoint keeps of it; nothing for a paused set. `f` runs under the
    /// write guard, as for [`stream_changes`](Self::stream_changes).
    pub fn visit_changes(
        &self,
        list: WatchList,
        change_set: usize,
        mut f: impl FnMut(&str, &str, Option<&Value>, Option<&Value>),
    ) {
        let mut data = self.lock_write();
        let Some((entry, changes)) = data.changes.ordered(list, change_set) else {
            return;
        };
        for change in changes {
            let (row, qualifier) = &entry.keys[change.slot];
            f(
                row,
                qualifier,
                change.at_mark.as_ref(),
                change.latest.as_ref(),
            );
        }
    }

    /// Moves the change set's mark to the container's current state, then
    /// records `since` — `(row, qualifier, value at the mark, latest
    /// value)`, as [`visit_changes`](Self::visit_changes) lists them — as
    /// changed since it: empty for a plain mark, a checkpoint's changes to
    /// restore one. The live count is the store's own. A paused set reopens
    /// here: writes fold into it again from this mark on.
    pub fn mark_changes(
        &self,
        list: WatchList,
        change_set: usize,
        since: Vec<(String, String, Option<Value>, Option<Value>)>,
    ) {
        let mut data = self.lock_write();
        let Tables {
            families, changes, ..
        } = &mut *data;
        let Some(number) = changes.set(list, change_set) else {
            return;
        };
        let set = &mut changes.change_sets[number];
        set.clear();
        let entry = &mut changes.entries[set.entry];
        if set.paused {
            set.paused = false;
            if entry.trackers.is_empty() {
                // Nothing kept the count while every set was paused.
                entry.live_cells = entry.count_live(families);
            }
            entry.trackers.push(number);
        }
        for (row, qualifier, at_mark, latest) in since {
            let slot = entry.slot(&row, &qualifier);
            set.fold_write(slot, at_mark.as_ref(), latest.as_ref());
        }
    }

    /// Pauses the change set: it drops what it holds and folds no write
    /// until [`mark_changes`](Self::mark_changes) reopens it, marked at the
    /// container's state then. Meanwhile it streams and visits nothing. A
    /// container whose every set is paused interns no key and keeps no
    /// live count, and a family whose every watched container is so takes
    /// the unwatched write path: no copy of the value, no fold. Pausing a
    /// paused or unopened set does nothing.
    pub fn pause_changes(&self, list: WatchList, change_set: usize) {
        let mut data = self.lock_write();
        let changes = &mut data.changes;
        let Some(number) = changes.set(list, change_set) else {
            return;
        };
        let set = &mut changes.change_sets[number];
        if set.paused {
            return;
        }
        set.paused = true;
        set.clear();
        changes.entries[set.entry]
            .trackers
            .retain(|&open| open != number);
    }

    /// Test switch: every container watched so far finds its slots by hash
    /// alone — the finger's oracle.
    #[cfg(test)]
    pub(crate) fn hash_only(&self) {
        for entry in &mut self.lock_write().changes.entries {
            entry.hash_only = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(n, the (new, old) pairs streamed)` of change set `number`.
    type Streamed = (usize, Vec<(Option<Value>, Option<Value>)>);

    fn streamed(store: &DataStore, list: WatchList, number: usize) -> Streamed {
        let mut updates = Vec::new();
        let n = store.stream_changes(list, number, |new, old| {
            updates.push((new.cloned(), old.cloned()));
        });
        (n, updates)
    }

    #[test]
    fn a_watch_waits_for_its_family_and_unknown_ids_hold_nothing() {
        let store = DataStore::new();
        let list = store.watch_list();
        let family = ContainerRef::family("t", "f");
        let column = ContainerRef::column("t", "f", "b");
        store.watch(list, &family, Some(1));
        store.watch(list, &column, Some(2));
        store.watch(WatchList(7), &family, Some(0));
        store.ensure_container(&family).unwrap();
        store.put("t", "f", "r", "a", Value::from(2.0)).unwrap();
        store.put("t", "f", "r", "b", Value::from(3.0)).unwrap();
        let inserted = |v: f64| (Some(Value::from(v)), None);
        let both = vec![inserted(2.0), inserted(3.0)];
        assert_eq!(streamed(&store, list, 1), (2, both));
        assert_eq!(streamed(&store, list, 2), (1, vec![inserted(3.0)]));
        // Set 0 of the list and list 7 were never opened.
        assert_eq!(streamed(&store, list, 0), (0, Vec::new()));
        assert_eq!(streamed(&store, WatchList(7), 0), (0, Vec::new()));
    }

    fn store_with(containers: &[&ContainerRef]) -> DataStore {
        let store = DataStore::new();
        for container in containers {
            store.ensure_container(container).unwrap();
        }
        store
    }

    fn num(v: f64) -> Option<Value> {
        Some(Value::from(v))
    }

    #[test]
    fn a_column_counts_only_its_qualifier_and_overlapping_containers_both_count() {
        let family = ContainerRef::family("t", "f");
        let (a, b) = (
            ContainerRef::column("t", "f", "a"),
            ContainerRef::column("t", "f", "b"),
        );
        let other = ContainerRef::family("t", "other");
        let store = store_with(&[&family, &other]);
        let list = store.watch_list();
        for (number, container) in [&family, &a, &b].into_iter().enumerate() {
            store.watch(list, container, Some(number));
        }
        store.put("t", "f", "r", "a", Value::from(1.0)).unwrap();
        store.put("t", "f", "r", "a", Value::from(4.0)).unwrap();
        store.put("t", "f", "r", "c", Value::from(1.0)).unwrap();
        store.put("t", "other", "r", "a", Value::from(1.0)).unwrap();
        let family_changes = vec![(num(4.0), None), (num(1.0), None)];
        assert_eq!(streamed(&store, list, 0), (2, family_changes));
        assert_eq!(streamed(&store, list, 1), (1, vec![(num(4.0), None)]));
        assert_eq!(streamed(&store, list, 2), (0, Vec::new()));
    }

    #[test]
    fn a_duplicate_watch_is_one_watch() {
        let family = ContainerRef::family("t", "f");
        let store = store_with(&[&family]);
        let list = store.watch_list();
        store.watch(list, &family, None);
        store.watch(list, &family, Some(0));
        store.watch(list, &family, None);
        store.put("t", "f", "r", "q", Value::from(1.0)).unwrap();
        assert_eq!(store.lock_read().changes.entries.len(), 1);
        assert_eq!(streamed(&store, list, 0), (1, vec![(num(1.0), None)]));
    }

    #[test]
    fn cells_stored_when_a_set_opens_count_as_inserted() {
        let family = ContainerRef::family("t", "f");
        let store = store_with(&[&family]);
        let list = store.watch_list();
        store.watch(list, &family, None);
        for row in 0..10 {
            let value = Value::from(f64::from(row));
            store.put("t", "f", &format!("r{row}"), "q", value).unwrap();
        }
        store.watch(list, &family, Some(0));
        let (n, inserted) = streamed(&store, list, 0);
        assert_eq!(n, 10);
        let expected: Vec<_> = (0..10).map(|row| (num(f64::from(row)), None)).collect();
        assert_eq!(inserted, expected);
        store.mark_changes(list, 0, Vec::new());
        assert_eq!(streamed(&store, list, 0), (10, Vec::new()));
        store.put("t", "f", "r3", "q", Value::from(7.0)).unwrap();
        assert_eq!(streamed(&store, list, 0), (10, vec![(num(7.0), num(3.0))]));
    }

    #[test]
    fn sets_over_one_container_mark_independently() {
        let family = ContainerRef::family("t", "f");
        let store = store_with(&[&family]);
        let list = store.watch_list();
        store.watch(list, &family, Some(0));
        store.watch(list, &family, Some(1));
        store.put("t", "f", "r", "q", Value::from(1.0)).unwrap();
        store.mark_changes(list, 1, Vec::new());
        store.put("t", "f", "r", "q", Value::from(4.0)).unwrap();
        assert_eq!(streamed(&store, list, 0), (1, vec![(num(4.0), None)]));
        assert_eq!(streamed(&store, list, 1), (1, vec![(num(4.0), num(1.0))]));
        // A removed cell still counts towards `n` when it was there at the
        // mark; one inserted since the mark and removed again is no change.
        store.delete("t", "f", "r", "q").unwrap();
        assert_eq!(streamed(&store, list, 1), (1, vec![(None, num(1.0))]));
        assert_eq!(streamed(&store, list, 0), (0, Vec::new()));
    }

    #[test]
    fn a_change_set_survives_visit_then_mark_restore() {
        let family = ContainerRef::family("t", "f");
        let store = store_with(&[&family]);
        let list = store.watch_list();
        store.watch(list, &family, Some(0));
        store.put("t", "f", "b", "q", Value::from(1.0)).unwrap();
        store.mark_changes(list, 0, Vec::new());
        store.put("t", "f", "b", "q", Value::from(2.0)).unwrap();
        store.put("t", "f", "a", "q", Value::from(7.0)).unwrap();
        let mut visited = Vec::new();
        store.visit_changes(list, 0, |row, qualifier, at_mark, latest| {
            visited.push((
                row.to_owned(),
                qualifier.to_owned(),
                at_mark.cloned(),
                latest.cloned(),
            ));
        });
        let change = |row: &str, at_mark, latest| (row.to_owned(), "q".to_owned(), at_mark, latest);
        assert_eq!(
            visited,
            [change("a", None, num(7.0)), change("b", num(1.0), num(2.0))]
        );

        // A fresh list over the same store, as recovery builds one.
        let restored = store.watch_list();
        store.watch(restored, &family, Some(0));
        store.mark_changes(restored, 0, visited);
        let expected = (2, vec![(num(7.0), None), (num(2.0), num(1.0))]);
        assert_eq!(streamed(&store, list, 0), expected);
        assert_eq!(streamed(&store, restored, 0), expected);
    }

    #[test]
    fn a_paused_set_folds_nothing_and_reopens_at_the_current_state() {
        let family = ContainerRef::family("t", "f");
        let column = ContainerRef::column("t", "f", "a");
        let store = store_with(&[&family]);
        let list = store.watch_list();
        store.watch(list, &family, Some(0));
        store.watch(list, &column, Some(1));
        store.watch(list, &column, Some(2));
        for row in ["r0", "r1", "r2"] {
            store.put("t", "f", row, "a", Value::from(1.0)).unwrap();
            store.put("t", "f", row, "b", Value::from(1.0)).unwrap();
        }
        for number in 0..3 {
            store.mark_changes(list, number, Vec::new());
        }
        // Set 0 is its family's only set; set 1 shares its column with 2.
        store.pause_changes(list, 0);
        store.pause_changes(list, 1);
        store.pause_changes(list, 1);
        store.pause_changes(list, 9);
        store.put("t", "f", "r0", "a", Value::from(5.0)).unwrap();
        store.delete("t", "f", "r1", "b").unwrap();
        store.put("t", "f", "r3", "b", Value::from(2.0)).unwrap();
        store.delete("t", "f", "r3", "b").unwrap();
        store.put("t", "f", "r4", "b", Value::from(2.0)).unwrap();
        assert_eq!(streamed(&store, list, 0), (0, Vec::new()));
        assert_eq!(streamed(&store, list, 1), (0, Vec::new()));
        let mut visited = 0;
        store.visit_changes(list, 0, |_, _, _, _| visited += 1);
        assert_eq!(visited, 0, "a paused set visits nothing");
        // The open set over the shared column saw the write.
        assert_eq!(streamed(&store, list, 2), (3, vec![(num(5.0), num(1.0))]));
        {
            let data = store.lock_read();
            let entry = &data.changes.entries[0];
            assert!(entry.trackers.is_empty());
            assert_eq!(entry.keys.len(), 6, "no key interned while paused");
        }

        // Reopened, each is marked at the container as it stands — the
        // family's live count counted again — and folds from there.
        store.mark_changes(list, 0, Vec::new());
        store.mark_changes(list, 1, Vec::new());
        assert_eq!(streamed(&store, list, 0), (6, Vec::new()));
        assert_eq!(streamed(&store, list, 1), (3, Vec::new()));
        store.delete("t", "f", "r0", "a").unwrap();
        store.put("t", "f", "r5", "a", Value::from(3.0)).unwrap();
        let expected = vec![(num(3.0), None), (None, num(5.0))];
        assert_eq!(streamed(&store, list, 0), (6, expected.clone()));
        assert_eq!(streamed(&store, list, 1), (3, expected));
    }

    #[test]
    fn a_family_whose_every_set_is_paused_is_written_as_unwatched() {
        let family = ContainerRef::family("t", "f");
        let column = ContainerRef::column("t", "f", "a");
        let store = store_with(&[&family, &ContainerRef::family("t", "g")]);
        let list = store.watch_list();
        store.watch(list, &ContainerRef::family("t", "g"), None);
        store.watch(list, &family, Some(0));
        store.watch(list, &column, Some(1));
        let watched = |name: &str| {
            let mut data = store.lock_write();
            let slot = data.slot(&addr("t", name)).unwrap();
            data.changes.watching(slot).is_some()
        };
        assert!(!watched("g"), "a watch without a set folds nothing");
        assert!(watched("f"));
        store.pause_changes(list, 0);
        assert!(watched("f"), "the column's set is still open");
        store.pause_changes(list, 1);
        assert!(!watched("f"));
        store.put("t", "f", "r", "a", Value::from(1.0)).unwrap();
        assert!(store.lock_read().changes.entries[1].keys.is_empty());
        // Reopened at the container as it stands, the column folds again.
        store.mark_changes(list, 1, Vec::new());
        assert!(watched("f"));
        store.put("t", "f", "r", "a", Value::from(2.0)).unwrap();
        assert_eq!(streamed(&store, list, 1), (1, vec![(num(2.0), num(1.0))]));
        assert_eq!(streamed(&store, list, 0), (0, Vec::new()));
    }

    #[test]
    fn attribution_stays_exact_over_many_containers() {
        let store = DataStore::new();
        let list = store.watch_list();
        for i in 0..50 {
            let family = ContainerRef::family("t", format!("f{i}"));
            store.ensure_container(&family).unwrap();
            store.watch(list, &family, Some(2 * i));
            let column = ContainerRef::column("t", format!("f{i}"), "q");
            store.watch(list, &column, Some(2 * i + 1));
        }
        store.put("t", "f7", "r", "q", Value::from(3.0)).unwrap();
        store
            .put("t", "f7", "r", "other", Value::from(1.0))
            .unwrap();
        for i in 0..50 {
            let (family, column) = if i == 7 {
                (
                    vec![(num(1.0), None), (num(3.0), None)],
                    vec![(num(3.0), None)],
                )
            } else {
                (Vec::new(), Vec::new())
            };
            let n = usize::from(i == 7);
            assert_eq!(streamed(&store, list, 2 * i), (2 * n, family), "f{i}");
            assert_eq!(streamed(&store, list, 2 * i + 1), (n, column), "f{i}:q");
        }
    }

    mod finger {
        //! The slot finger against the hash path it shortcuts: write streams
        //! built to defeat it leave the same change sets, in the same order.

        use proptest::prelude::*;

        use super::super::*;
        use super::{streamed, Streamed};

        const ROWS: usize = 6;
        const QUALIFIERS: [&str; 3] = ["a", "b", "c"];
        /// The change sets of a side: one over the family, one over a
        /// column of it.
        const SETS: [usize; 2] = [0, 1];

        type Exported = Vec<(String, String, Option<Value>, Option<Value>)>;

        /// A store and a watch list with the two change sets.
        struct Side {
            store: DataStore,
            list: WatchList,
        }

        impl Side {
            fn over(store: DataStore, hash_only: bool) -> Self {
                let list = store.watch_list();
                let containers = [
                    ContainerRef::family("t", "f"),
                    ContainerRef::column("t", "f", "b"),
                ];
                // Watched first and switched before the sets open, so the
                // stored cells are interned the side's way too.
                for container in &containers {
                    store.watch(list, container, None);
                }
                if hash_only {
                    store.hash_only();
                }
                for (container, number) in containers.iter().zip(SETS) {
                    store.watch(list, container, Some(number));
                }
                Self { store, list }
            }

            fn new(hash_only: bool) -> Self {
                let store = DataStore::new();
                store
                    .ensure_container(&ContainerRef::family("t", "f"))
                    .unwrap();
                Self::over(store, hash_only)
            }

            fn exported(&self, number: usize) -> Exported {
                let mut out = Vec::new();
                self.store
                    .visit_changes(self.list, number, |row, qualifier, at_mark, latest| {
                        out.push((
                            row.to_owned(),
                            qualifier.to_owned(),
                            at_mark.cloned(),
                            latest.cloned(),
                        ));
                    });
                out
            }

            /// Everything a change set shows: element count, streamed
            /// updates, exported changes.
            fn view(&self) -> Vec<(Streamed, Exported)> {
                SETS.iter()
                    .map(|&number| {
                        (
                            streamed(&self.store, self.list, number),
                            self.exported(number),
                        )
                    })
                    .collect()
            }

            /// A watch list as recovery builds one: a fresh one over the
            /// same store, its change sets restored — slots interned in key
            /// order, whatever order the writes arrived in.
            fn recovered(&self, hash_only: bool) -> Self {
                let next = Self::over(self.store.clone(), hash_only);
                for number in SETS {
                    next.store
                        .mark_changes(next.list, number, self.exported(number));
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
            fn the_finger_changes_nothing_a_change_set_shows(
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
                            side.store.mark_changes(side.list, SETS[at % 2], Vec::new());
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
            let data = side.store.lock_read();
            let family = &data.changes.entries[0];
            assert_eq!(family.joined_key, b"r0\xFFa");
            assert_eq!(family.last_slot, 2 * QUALIFIERS.len() - 1);
            assert_eq!(family.keys.len(), ROWS * QUALIFIERS.len());
        }
    }
}
