//! Equivalence of write-driven change sets and the snapshot+diff evaluation
//! they replaced.
//!
//! For random put/delete sequences the metric value obtained by streaming a
//! store change set (`DataStore::stream_changes`) must equal — `==` on the f64 bits — the value
//! obtained from `DataStore::snapshot` + `Snapshot::diff` +
//! [`MetricKind::evaluate`] against a snapshot kept since the same mark.
//! Covered: deletes, delete-then-re-add at the same value, fresh inserts,
//! categorical values, a family watcher overlapping two column watchers,
//! two trackers with independent marks on one container, a store populated
//! before the sets open, every built-in metric plus custom metrics
//! reading the previous-state sum and the element count, and both
//! accumulation modes.
//!
//! A second property aims at the order the sets are streamed in, which is
//! kept by integer key ranks: a key universe that keeps growing (keys
//! interned between evaluations, ranked and unranked keys compared with each
//! other), evaluations without a mark in between (an ordered prefix plus an
//! unordered tail of new cells) and long stretches between marks (a set
//! that covers most of its container) — all still bit-equal to the snapshot
//! diff, whose `BTreeMap` order is the `(row, qualifier)` order itself.
//!
//! A third aims at the finger the store finds a written cell's slot with
//! (the slot after the previous write's, then the same one, then a hash):
//! waves that rewrite the same cells in the order they were first written,
//! reversed, or two cells turn about, with deletes and never-seen keys
//! spliced into the middle of a wave. (The finger against the hash path it
//! shortcuts, checkpointed change sets included, is a unit test beside the
//! store's change sets: the switch that turns the finger off is
//! `cfg(test)`.)
//!
//! A fourth runs four writer threads against overlapping cells of the
//! tracked family — one-shot puts, family-handle puts, two-row batches and
//! deletes — and checks every tracker after each join: the store folds each write
//! under its write guard, in apply order, however the writers interleave.

use std::sync::Arc;
use std::thread;

use proptest::prelude::*;

use smartflux::{AccumulationMode, MetricContext, MetricFn, MetricKind};
use smartflux_datastore::{ContainerRef, DataStore, Snapshot, Value, WatchList};

const ROWS: [&str; 5] = ["r0", "r1", "r2", "r3", "r4"];
const QUALIFIERS: [&str; 3] = ["a", "b", "c"];

/// Rows of the growing universe, named so that the order they are first
/// written in is nothing like their key order.
fn scattered_rows() -> Vec<String> {
    (0..24).map(|i| format!("k{:02}", (i * 7) % 24)).collect()
}

/// A small value universe, so re-adding a cell at the value it held at the
/// mark happens often.
fn value(pick: usize) -> Value {
    match pick % 7 {
        0 => Value::from(1.0),
        1 => Value::from(2.0),
        2 => Value::from(-3.5),
        3 => Value::from(0.0),
        4 => Value::from(2i64),
        5 => Value::from("hot"),
        _ => Value::from("cold"),
    }
}

fn kinds() -> Vec<MetricKind> {
    vec![
        MetricKind::Magnitude,
        MetricKind::RelativeImpact,
        MetricKind::RelativeError,
        MetricKind::MeanRelative,
        MetricKind::Rmse { scale: 2.0 },
        custom(|s, ctx| {
            s.sum_abs_delta * s.modified
                / (1.0 + ctx.previous_state_sum + ctx.total_elements as f64)
        }),
        // Distinguishes an empty previous state summed from -0.0 (what
        // `Iterator::sum` yields) from one summed from +0.0.
        custom(|s, ctx| s.sum_delta + 1.0 / ctx.previous_state_sum),
    ]
}

/// A custom metric over per-change sums, passed as [`MetricKind::Custom`].
/// It reads a change as the built-in metrics do: `|new − old|` is 1 when a
/// non-numeric value is on either side, an inserted or deleted number
/// counts its own magnitude, and the signed sum takes that magnitude
/// negative when the numeric reading (absent or non-numeric as 0) fell.
struct Sums {
    sum_abs_delta: f64,
    sum_delta: f64,
    modified: f64,
    formula: fn(&Sums, &MetricContext) -> f64,
}

impl Sums {
    fn new(formula: fn(&Sums, &MetricContext) -> f64) -> Self {
        Self {
            sum_abs_delta: 0.0,
            sum_delta: 0.0,
            modified: 0.0,
            formula,
        }
    }
}

fn custom(formula: fn(&Sums, &MetricContext) -> f64) -> MetricKind {
    MetricKind::Custom(Arc::new(move || Box::new(Sums::new(formula))))
}

impl MetricFn for Sums {
    fn reset(&mut self) {
        *self = Self::new(self.formula);
    }

    fn update(&mut self, new: Option<&Value>, old: Option<&Value>) {
        let d = match (new, old) {
            (Some(n), Some(o)) => n.abs_diff(o),
            (Some(v), None) | (None, Some(v)) => v.as_f64().map_or(1.0, f64::abs),
            (None, None) => 0.0,
        };
        if d > 0.0 {
            let reading = |v: Option<&Value>| v.and_then(Value::as_f64).unwrap_or(0.0);
            self.sum_abs_delta += d;
            self.sum_delta += if reading(new) < reading(old) { -d } else { d };
            self.modified += 1.0;
        }
    }

    fn compute(&self, ctx: &MetricContext) -> f64 {
        let v = (self.formula)(self, ctx);
        if v.is_nan() {
            0.0
        } else {
            v
        }
    }
}

/// One generated step: `(kind, row, qualifier, value, tracker)`.
type Step = (usize, usize, usize, usize, usize);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (0usize..12, 0usize..5, 0usize..3, 0usize..7, 0usize..4),
        1..80,
    )
}

/// The snapshot-holding tracker the engine used to keep.
struct Reference {
    container: ContainerRef,
    baseline: Snapshot,
    accumulated: Vec<f64>,
}

/// The change-set tracker, with the previous-state sum kept the way the
/// engine keeps it: one ordered fold over the container at every mark.
struct Tracked {
    /// Its change set's number in the case's watch list.
    change_set: usize,
    container: ContainerRef,
    previous_state_sum: f64,
    accumulated: Vec<f64>,
}

fn reference_values(store: &DataStore, t: &Reference, kinds: &[MetricKind]) -> (usize, Vec<f64>) {
    let current = store.snapshot(&t.container).unwrap();
    let diff = current.diff(&t.baseline);
    let previous: f64 = t.baseline.iter().filter_map(|(_, v)| v.as_f64()).sum();
    let ctx = MetricContext::new(current.len().max(t.baseline.len()), previous);
    (
        diff.total_slots(),
        kinds.iter().map(|k| k.evaluate(&diff, &ctx)).collect(),
    )
}

/// Streams change set `t` into `metric`, as the engine does; returns `n`.
fn stream(store: &DataStore, list: WatchList, t: &Tracked, metric: &mut dyn MetricFn) -> usize {
    store.stream_changes(list, t.change_set, |new, old| metric.update(new, old))
}

fn tracked_values(
    store: &DataStore,
    list: WatchList,
    t: &Tracked,
    kinds: &[MetricKind],
) -> (usize, Vec<f64>) {
    let mut total = 0;
    let values = kinds
        .iter()
        .map(|k| {
            let mut metric = k.instantiate();
            total = stream(store, list, t, metric.as_mut());
            metric.compute(&MetricContext::new(total, t.previous_state_sum))
        })
        .collect();
    (total, values)
}

/// A metric that keeps the `update(new, old)` calls it was streamed, in
/// order: the witness that a change set streams in the diff's own order
/// (sums of the small dyadic values used here come out the same in any).
#[derive(Default)]
struct Recorder(Vec<(Option<Value>, Option<Value>)>);

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

fn mark(store: &DataStore, list: WatchList, r: &mut Reference, t: &mut Tracked) {
    r.baseline = store.snapshot(&r.container).unwrap();
    store.mark_changes(list, t.change_set, Vec::new());
    t.previous_state_sum = store
        .fold_cells(&t.container, -0.0, |sum, _, _, v| {
            v.as_f64().map_or(sum, |x| sum + x)
        })
        .unwrap();
}

fn assert_same(
    store: &DataStore,
    list: WatchList,
    mode: AccumulationMode,
    refs: &[Reference],
    tracked: &[Tracked],
    kinds: &[MetricKind],
    at: usize,
) {
    for (slot, (r, t)) in refs.iter().zip(tracked).enumerate() {
        let (ref_total, ref_values) = reference_values(store, r, kinds);
        let (new_total, new_values) = tracked_values(store, list, t, kinds);
        assert_eq!(
            new_total, ref_total,
            "element count, tracker {slot} at step {at}"
        );
        let mut streamed = Recorder::default();
        stream(store, list, t, &mut streamed);
        let listed: Vec<_> = store
            .snapshot(&r.container)
            .unwrap()
            .diff(&r.baseline)
            .changes()
            .iter()
            .map(|c| (c.new.clone(), c.old.clone()))
            .collect();
        assert_eq!(
            streamed.0, listed,
            "streaming order, tracker {slot} at step {at}"
        );
        for (k, (new, old)) in new_values.iter().zip(&ref_values).enumerate() {
            let (new, old) = match mode {
                AccumulationMode::Cancel => (*new, *old),
                AccumulationMode::Accumulate => (t.accumulated[k] + new, r.accumulated[k] + old),
            };
            assert_eq!(
                new.to_bits(),
                old.to_bits(),
                "{:?} on tracker {slot} at step {at}: change set {new} vs snapshot diff {old}",
                kinds[k]
            );
        }
    }
}

/// What a case's steps write to, and what.
#[derive(Clone, Copy)]
struct Universe<'a> {
    rows: &'a [&'a str],
    /// Step `at` can only reach the first `1 + at / 4` rows, so new keys
    /// keep appearing.
    growing: bool,
    /// Every value names its cell, so a change streamed out of place shows;
    /// otherwise values come from the small universe of [`value`].
    cell_values: bool,
}

/// Two independently marked trackers over the family `t/f`, one per column
/// over two of its three qualifiers, each beside the snapshot-holding
/// reference marked at the same (empty) state: change sets 0–3 of a watch
/// list opened in `store` now.
fn trackers(store: &DataStore, kinds: &[MetricKind]) -> (WatchList, Vec<Reference>, Vec<Tracked>) {
    let list = store.watch_list();
    let family = ContainerRef::family("t", "f");
    let containers = [
        family.clone(),
        family,
        ContainerRef::column("t", "f", "a"),
        ContainerRef::column("t", "f", "b"),
    ];
    let refs = containers
        .iter()
        .map(|c| Reference {
            container: c.clone(),
            baseline: Snapshot::new(),
            accumulated: vec![0.0; kinds.len()],
        })
        .collect();
    let tracked = containers
        .iter()
        .enumerate()
        .map(|(change_set, c)| {
            store.watch(list, c, Some(change_set));
            Tracked {
                change_set,
                container: c.clone(),
                previous_state_sum: -0.0,
                accumulated: vec![0.0; kinds.len()],
            }
        })
        .collect();
    (list, refs, tracked)
}

fn run_case(steps: &[Step], universe: Universe<'_>, prepopulated: usize, mode: AccumulationMode) {
    let kinds = kinds();
    let store = DataStore::new();
    let family = ContainerRef::family("t", "f");
    store.ensure_container(&family).unwrap();
    let apply = |at: usize, step: &Step| {
        let (kind, row, qualifier, pick, _) = *step;
        let Universe {
            rows,
            growing,
            cell_values,
        } = universe;
        let reachable = if growing { 1 + at / 4 } else { rows.len() };
        let row = row % reachable.min(rows.len());
        if kind < 3 {
            store
                .delete("t", "f", rows[row], QUALIFIERS[qualifier])
                .unwrap();
        } else {
            let value = if cell_values {
                Value::from((row * QUALIFIERS.len() + qualifier) as f64 + pick as f64 / 8.0)
            } else {
                value(pick)
            };
            store
                .put("t", "f", rows[row], QUALIFIERS[qualifier], value)
                .unwrap();
        }
    };
    let prepopulated = prepopulated.min(steps.len());
    for (at, step) in steps[..prepopulated].iter().enumerate() {
        apply(at, step);
    }

    let (list, mut refs, mut tracked) = trackers(&store, &kinds);

    assert_same(&store, list, mode, &refs, &tracked, &kinds, 0);
    for (at, step) in steps.iter().enumerate().skip(prepopulated) {
        let (kind, .., which) = *step;
        match kind {
            // The tracked step "executes": its baseline restarts here.
            10 => {
                assert_same(&store, list, mode, &refs, &tracked, &kinds, at);
                let (r, t) = (&mut refs[which], &mut tracked[which]);
                if mode == AccumulationMode::Cancel {
                    mark(&store, list, r, t);
                }
                r.accumulated.fill(0.0);
                t.accumulated.fill(0.0);
            }
            // A wave ends: under Accumulate every mark rolls forward.
            11 => {
                assert_same(&store, list, mode, &refs, &tracked, &kinds, at);
                if mode == AccumulationMode::Accumulate {
                    for (r, t) in refs.iter_mut().zip(&mut tracked) {
                        let (_, ref_values) = reference_values(&store, r, &kinds);
                        let (_, new_values) = tracked_values(&store, list, t, &kinds);
                        for k in 0..kinds.len() {
                            r.accumulated[k] += ref_values[k];
                            t.accumulated[k] += new_values[k];
                        }
                        mark(&store, list, r, t);
                    }
                }
            }
            _ => apply(at, step),
        }
    }
    assert_same(&store, list, mode, &refs, &tracked, &kinds, steps.len());
}

proptest! {
    #[test]
    fn change_sets_equal_snapshot_diffs(
        steps in steps(),
        prepopulated in 0usize..20,
    ) {
        for mode in [AccumulationMode::Cancel, AccumulationMode::Accumulate] {
            let universe = Universe {
                rows: &ROWS,
                growing: false,
                cell_values: false,
            };
            run_case(&steps, universe, prepopulated, mode);
        }
    }

    /// The streaming order over 72 keys that are first written in anything
    /// but key order, writes outnumbering marks and evaluations four times
    /// as much as above: once with the key set growing throughout (ranked
    /// against unranked keys), once with every key reachable from the start
    /// (the set is soon fully ranked, and sets that cover most of it are
    /// picked out of the rank order instead of sorted).
    #[test]
    fn ranked_change_sets_keep_key_order(
        steps in prop::collection::vec(
            (0usize..48, 0usize..24, 0usize..3, 0usize..7, 0usize..4),
            100..400,
        ),
    ) {
        let rows = scattered_rows();
        let rows: Vec<&str> = rows.iter().map(String::as_str).collect();
        let steps: Vec<Step> = steps
            .into_iter()
            .map(|(kind, row, qualifier, pick, which)| {
                // Kinds 12.. are more puts (3..10); the first two trackers
                // are the family's, so they mark rarely and grow large.
                let kind = if kind < 12 { kind } else { 3 + kind % 7 };
                (kind, row, qualifier, pick, which)
            })
            .collect();
        for mode in [AccumulationMode::Cancel, AccumulationMode::Accumulate] {
            for growing in [true, false] {
                let universe = Universe {
                    rows: &rows,
                    growing,
                    cell_values: true,
                };
                run_case(&steps, universe, 0, mode);
            }
        }
    }
}

/// One wave of a finger-defeating stream as [`Step`]s: puts of the cells of
/// the first `rows` rows in the order `walk` names, `extra` in the middle,
/// then `close`: `(0, tracker)` marks that tracker, `(1, _)` ends the wave.
fn wave_steps(
    walk: usize,
    rows: usize,
    pick: usize,
    extra: &[Step],
    close: (usize, usize),
) -> Vec<Step> {
    const PUT: usize = 5;
    let cells: Vec<Step> = (0..rows)
        .flat_map(|row| (0..QUALIFIERS.len()).map(move |q| (PUT, row, q, pick, 0)))
        .collect();
    let mut wave: Vec<Step> = match walk {
        0 => cells,
        1 => cells.into_iter().rev().collect(),
        _ => (0..cells.len())
            .map(|i| [cells[0], cells[cells.len() - 1]][i % 2])
            .collect(),
    };
    let middle = wave.len() / 2;
    wave.splice(middle..middle, extra.iter().copied());
    wave.push((10 + close.0, 0, 0, 0, close.1));
    wave
}

proptest! {
    #[test]
    fn streams_that_defeat_the_slot_finger_equal_snapshot_diffs(
        waves in prop::collection::vec(
            (
                0usize..3,
                1usize..24,
                0usize..7,
                prop::collection::vec((0usize..10, 0usize..24, 0usize..3, 0usize..7, 0usize..4), 0..6),
                (0usize..2, 0usize..4),
            ),
            1..8,
        ),
        prepopulated in 0usize..40,
    ) {
        let rows = scattered_rows();
        let rows: Vec<&str> = rows.iter().map(String::as_str).collect();
        let steps: Vec<Step> = waves
            .iter()
            .flat_map(|(walk, rows, pick, extra, close)| wave_steps(*walk, *rows, *pick, extra, *close))
            .collect();
        for mode in [AccumulationMode::Cancel, AccumulationMode::Accumulate] {
            let universe = Universe {
                rows: &rows,
                growing: false,
                cell_values: true,
            };
            run_case(&steps, universe, prepopulated, mode);
        }
    }
}

/// The scenario `Snapshot::diff`'s own tests single out, through the change
/// set: delete + re-add at the mark's value is no change; at another value
/// it is one update.
#[test]
fn delete_then_readd_at_the_same_value_is_invisible() {
    let store = DataStore::new();
    let c = ContainerRef::family("t", "f");
    store.ensure_container(&c).unwrap();
    store.put("t", "f", "r", "q", Value::from(5.0)).unwrap();
    let list = store.watch_list();
    store.watch(list, &c, Some(0));
    store.mark_changes(list, 0, Vec::new());

    let magnitude = |store: &DataStore| {
        let mut m = MetricKind::Magnitude.instantiate();
        let total = store.stream_changes(list, 0, |new, old| m.update(new, old));
        (total, m.compute(&MetricContext::new(total, 5.0)))
    };
    store.delete("t", "f", "r", "q").unwrap();
    assert_eq!(magnitude(&store), (1, 5.0));
    store.put("t", "f", "r", "q", Value::from(5.0)).unwrap();
    assert_eq!(magnitude(&store), (1, 0.0));
    store.delete("t", "f", "r", "q").unwrap();
    store.put("t", "f", "r", "q", Value::from(6.0)).unwrap();
    assert_eq!(magnitude(&store), (1, 1.0));
}

/// One writer thread's share of a round: `ops` writes drawn from `seed`
/// over every cell of the family, by one-shot `put`, by `put` and by a
/// two-row `put_many` through a family handle, and by `delete`.
fn writer(store: &DataStore, seed: u64, ops: usize) {
    let family = store.family("t", "f").unwrap();
    let mut state = seed;
    for _ in 0..ops {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let pick = (state >> 33) as usize;
        let (row, qualifier) = (ROWS[pick % ROWS.len()], QUALIFIERS[pick / 5 % 3]);
        let value = value(pick / 15);
        match pick / 105 % 4 {
            0 => {
                store.put("t", "f", row, qualifier, value).unwrap();
            }
            1 => {
                family.put(row, qualifier, value).unwrap();
            }
            2 => {
                let next = ROWS[(pick + 1) % ROWS.len()];
                family
                    .put_many(vec![(row, "a", value.clone()), (next, "c", value)])
                    .unwrap();
            }
            _ => {
                store.delete("t", "f", row, qualifier).unwrap();
            }
        }
    }
}

/// Four writers on overlapping cells, joined between rounds: every tracker
/// streams what the snapshot diff against its mark lists, bit for bit.
#[test]
fn concurrent_writers_leave_change_sets_equal_to_snapshot_diffs() {
    const WRITERS: u64 = 4;
    const ROUNDS: u64 = 6;
    let kinds = kinds();
    for seed in 0..8u64 {
        let store = DataStore::new();
        store
            .ensure_container(&ContainerRef::family("t", "f"))
            .unwrap();
        let (list, mut refs, mut tracked) = trackers(&store, &kinds);
        for round in 0..ROUNDS {
            thread::scope(|scope| {
                for w in 0..WRITERS {
                    let store = &store;
                    scope.spawn(move || writer(store, (seed * ROUNDS + round) * WRITERS + w, 60));
                }
            });
            let at = round as usize;
            assert_same(
                &store,
                list,
                AccumulationMode::Cancel,
                &refs,
                &tracked,
                &kinds,
                at,
            );
            let which = (seed + round) as usize % refs.len();
            mark(&store, list, &mut refs[which], &mut tracked[which]);
        }
    }
}
