//! The traced run's span store and what is computed from it.
//!
//! The program already emits causal spans (`wms.wave`, `wms.step_total`,
//! `engine.impact`, `engine.predict`, `durability.commit`, `net.submit`, a
//! `store.write` event per write); this module captures them through the
//! public `Telemetry::set_trace_sink`, together with the benchmark's own
//! `bench.*` spans opened around the calls into the program. Spans stay in
//! memory until the run ends. End-to-end numbers never come from here.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use smartflux_telemetry::{SpanEvent, Telemetry, TraceSink};

use crate::json::{obj, Json};
use crate::stats::median;

/// Benchmark-side span names.
pub const BENCH_SETUP: &str = "bench.setup";
pub const BENCH_WAVE: &str = "bench.wave";
pub const BENCH_QUERY: &str = "bench.query";
pub const BENCH_RECOVER: &str = "bench.recover";

/// Per-write events are far too many to keep one by one (a thousand per
/// LRB wave); they are folded into a count and a total.
const FOLDED: &str = "store.write";

/// One completed span: name, start, end, the span that caused it, and the
/// identifier its whole causal tree shares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    pub name: &'static str,
    pub tag: u64,
    pub trace_id: u64,
    pub span_id: u64,
    pub parent_id: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<SpanRec>,
    folded_count: u64,
    folded_ns: u64,
}

/// The in-memory trace sink.
#[derive(Debug, Default)]
pub struct SpanStore {
    inner: Mutex<Inner>,
}

impl TraceSink for SpanStore {
    fn span_completed(&self, event: &SpanEvent) {
        let dur_ns = u64::try_from(event.elapsed.as_nanos()).unwrap_or(u64::MAX);
        let mut inner = self
            .inner
            .lock()
            .expect("span store lock is never poisoned: pushes cannot panic");
        if event.name == FOLDED {
            inner.folded_count += 1;
            inner.folded_ns += dur_ns;
            return;
        }
        inner.spans.push(SpanRec {
            name: event.name,
            tag: event.tag,
            trace_id: event.trace_id,
            span_id: event.span_id,
            parent_id: event.parent_id,
            start_ns: event.start_ns,
            dur_ns,
        });
    }
}

/// The span store plus the telemetry handle the benchmark opens its own
/// `bench.*` spans on. Both go to the same sink, and span parentage is
/// tracked per thread across handles, so a `wms.wave` opened by the
/// program inside a `bench.wave` becomes its child.
#[derive(Debug, Clone)]
pub struct Tracer {
    pub store: Arc<SpanStore>,
    pub handle: Telemetry,
}

impl Tracer {
    #[must_use]
    pub fn new() -> Self {
        let store = Arc::new(SpanStore::default());
        let handle = Telemetry::enabled();
        handle.set_trace_sink(Some(store.clone() as Arc<dyn TraceSink>));
        Self { store, handle }
    }

    /// The store as the sink type `Telemetry::set_trace_sink` takes.
    #[must_use]
    pub fn sink(&self) -> Arc<dyn TraceSink> {
        self.store.clone()
    }
}

impl SpanStore {
    /// Takes everything captured so far.
    #[must_use]
    pub fn take(&self) -> Captured {
        let mut inner = self
            .inner
            .lock()
            .expect("span store lock is never poisoned: pushes cannot panic");
        Captured {
            spans: std::mem::take(&mut inner.spans),
            store_writes: inner.folded_count,
            store_write_ns: inner.folded_ns,
        }
    }
}

/// A finished capture.
#[derive(Debug, Clone, Default)]
pub struct Captured {
    pub spans: Vec<SpanRec>,
    pub store_writes: u64,
    pub store_write_ns: u64,
}

/// The part of `[start, end)` that `children` (as `(start, end)`) do not
/// cover: a span's self time. Children may overlap each other (parallel
/// levels) and are clipped to the parent.
#[must_use]
pub fn self_time(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in children.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start).saturating_sub(covered)
}

/// Totals of one span name over a capture.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// What one application wave's causal tree adds up to, by layer.
#[derive(Debug, Clone, Copy, Default)]
struct WaveSums {
    bench_wave: u64,
    wms_wave: u64,
    steps: u64,
    impact: u64,
    predict: u64,
    durability: u64,
}

/// The per-layer numbers the traced run yields.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Traced application waves.
    pub waves: u64,
    /// Median over waves of Σ `wms.step_total`, µs.
    pub step_total_us: f64,
    /// Median over waves of `wms.wave` − Σ `wms.step_total`, µs: the
    /// engine's own bookkeeping inside the wave.
    pub engine_self_us: f64,
    /// Median over waves of Σ `engine.impact` / Σ `engine.predict`, µs.
    pub impact_us: f64,
    pub predict_us: f64,
    /// 1 − attributed ÷ wave wall over all traced waves. Attributed is
    /// every program span directly under the wave (steps, impact,
    /// predict, WAL commit, checkpoint) or, over the wire, the host's
    /// `net.submit`; the rest is time no existing span owns.
    pub unattributed_ratio: f64,
}

impl Captured {
    /// Self time and totals per span name.
    #[must_use]
    pub fn totals(&self) -> Vec<(&'static str, NameTotals)> {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if s.parent_id != 0 {
                children
                    .entry(s.parent_id)
                    .or_default()
                    .push((s.start_ns, s.start_ns + s.dur_ns));
            }
        }
        let mut by_name: Vec<(&'static str, NameTotals)> = Vec::new();
        for s in &self.spans {
            let own = match children.get_mut(&s.span_id) {
                Some(kids) => self_time(s.start_ns, s.start_ns + s.dur_ns, kids),
                None => s.dur_ns,
            };
            let slot = match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some(slot) => &mut slot.1,
                None => {
                    by_name.push((s.name, NameTotals::default()));
                    &mut by_name.last_mut().expect("just pushed").1
                }
            };
            slot.count += 1;
            slot.total_ns += s.dur_ns;
            slot.self_ns += own;
        }
        by_name.sort_by_key(|(name, _)| *name);
        by_name
    }

    /// Folds the capture into per-wave sums and their medians.
    #[must_use]
    pub fn summarize(&self) -> TraceSummary {
        // Every `bench.wave` is the root of its own trace on the client
        // thread; program spans of an in-process wave share its trace id.
        let mut waves: HashMap<u64, WaveSums> = HashMap::new();
        let mut wave_tags = std::collections::HashSet::new();
        for s in self.spans.iter().filter(|s| s.name == BENCH_WAVE) {
            waves.entry(s.trace_id).or_default().bench_wave += s.dur_ns;
            wave_tags.insert(s.tag);
        }
        let mut submit_ns = 0u64;
        for s in &self.spans {
            if s.name == "net.submit" {
                // Server-side, another thread, its own trace: it pairs
                // with a `bench.wave` by wave number (training waves have
                // none), and only the total is needed here.
                if wave_tags.contains(&s.tag) {
                    submit_ns += s.dur_ns;
                }
                continue;
            }
            let Some(sums) = waves.get_mut(&s.trace_id) else {
                continue;
            };
            match s.name {
                "wms.wave" => sums.wms_wave += s.dur_ns,
                "wms.step_total" => sums.steps += s.dur_ns,
                "engine.impact" => sums.impact += s.dur_ns,
                "engine.predict" => sums.predict += s.dur_ns,
                "durability.commit" | "durability.checkpoint_write" => sums.durability += s.dur_ns,
                _ => {}
            }
        }
        let us = |f: &dyn Fn(&WaveSums) -> u64| -> f64 {
            median(
                &waves
                    .values()
                    .map(|w| f(w) as f64 / 1e3)
                    .collect::<Vec<_>>(),
            )
        };
        let wall: u64 = waves.values().map(|w| w.bench_wave).sum();
        let in_process: u64 = waves
            .values()
            .map(|w| w.steps + w.impact + w.predict + w.durability)
            .sum();
        let attributed = if in_process > 0 {
            in_process
        } else {
            submit_ns
        };
        let traced_in_process = waves.values().any(|w| w.wms_wave > 0);
        TraceSummary {
            waves: waves.len() as u64,
            step_total_us: if traced_in_process {
                us(&|w| w.steps)
            } else {
                0.0
            },
            engine_self_us: if traced_in_process {
                us(&|w| w.wms_wave.saturating_sub(w.steps))
            } else {
                0.0
            },
            impact_us: us(&|w| w.impact),
            predict_us: us(&|w| w.predict),
            unattributed_ratio: if wall == 0 {
                0.0
            } else {
                1.0 - attributed as f64 / wall as f64
            },
        }
    }

    /// The trace file: self time per span name over the whole capture, the
    /// folded write events, and the full span list of the first
    /// `keep_waves` application waves (plus every set-up, query and
    /// recovery span) for a flame view.
    #[must_use]
    pub fn to_json(&self, workload: &str, keep_waves: usize) -> Json {
        let mut wave_roots: Vec<&SpanRec> =
            self.spans.iter().filter(|s| s.name == BENCH_WAVE).collect();
        wave_roots.sort_by_key(|s| s.start_ns);
        let kept_traces: std::collections::HashSet<u64> = wave_roots
            .iter()
            .take(keep_waves)
            .map(|s| s.trace_id)
            .collect();
        let kept_tags: std::collections::HashSet<u64> =
            wave_roots.iter().take(keep_waves).map(|s| s.tag).collect();
        let keep = |s: &SpanRec| match s.name {
            BENCH_SETUP | BENCH_QUERY | BENCH_RECOVER | "engine.train" => true,
            "net.submit" => kept_tags.contains(&s.tag),
            _ => kept_traces.contains(&s.trace_id),
        };
        let spans: Vec<Json> = self
            .spans
            .iter()
            .filter(|s| keep(s))
            .map(|s| {
                obj([
                    ("name", s.name.into()),
                    ("start_ns", s.start_ns.into()),
                    ("end_ns", (s.start_ns + s.dur_ns).into()),
                    ("span", s.span_id.into()),
                    ("parent", s.parent_id.into()),
                    ("trace", s.trace_id.into()),
                    (
                        "tag",
                        if s.tag == u64::MAX {
                            Json::Null
                        } else {
                            s.tag.into()
                        },
                    ),
                ])
            })
            .collect();
        let totals: Vec<(String, Json)> = self
            .totals()
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_owned(),
                    obj([
                        ("count", t.count.into()),
                        ("total_us", (t.total_ns as f64 / 1e3).into()),
                        ("self_us", (t.self_ns as f64 / 1e3).into()),
                    ]),
                )
            })
            .collect();
        obj([
            ("workload", workload.into()),
            ("spans_captured", self.spans.len().into()),
            ("self_time_by_name", Json::Obj(totals)),
            (
                "store_write_events",
                obj([
                    ("count", self.store_writes.into()),
                    ("total_us", (self.store_write_ns as f64 / 1e3).into()),
                ]),
            ),
            ("spans_kept_for_waves", keep_waves.into()),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Sequential children.
        assert_eq!(self_time(0, 100, &mut [(10, 30), (40, 60)]), 60);
        // Overlapping children count once; a child past the end is clipped.
        assert_eq!(self_time(0, 100, &mut [(10, 50), (30, 70), (90, 140)]), 30);
        // Unsorted input, a nested child, no children.
        assert_eq!(self_time(0, 100, &mut [(60, 80), (10, 50), (20, 30)]), 40);
        assert_eq!(self_time(5, 25, &mut []), 20);
    }

    fn rec(
        name: &'static str,
        trace: u64,
        span: u64,
        parent: u64,
        start: u64,
        dur: u64,
    ) -> SpanRec {
        SpanRec {
            name,
            tag: trace,
            trace_id: trace,
            span_id: span,
            parent_id: parent,
            start_ns: start,
            dur_ns: dur,
        }
    }

    #[test]
    fn summary_attributes_a_wave_to_its_layers() {
        let captured = Captured {
            spans: vec![
                rec(BENCH_WAVE, 1, 10, 0, 0, 1_000_000),
                rec("wms.wave", 1, 11, 10, 10_000, 900_000),
                rec("wms.step_total", 1, 12, 11, 20_000, 200_000),
                rec("wms.step_total", 1, 13, 11, 300_000, 100_000),
                rec("engine.impact", 1, 14, 11, 500_000, 50_000),
                rec("engine.predict", 1, 15, 11, 600_000, 10_000),
            ],
            store_writes: 3,
            store_write_ns: 900,
        };
        let s = captured.summarize();
        assert_eq!(s.waves, 1);
        assert_eq!(s.step_total_us, 300.0);
        assert_eq!(s.engine_self_us, 600.0);
        assert_eq!(s.impact_us, 50.0);
        assert_eq!(s.predict_us, 10.0);
        assert!((s.unattributed_ratio - 0.64).abs() < 1e-9);
        let totals = captured.totals();
        let wave = totals.iter().find(|(n, _)| *n == "wms.wave").unwrap().1;
        assert_eq!(wave.self_ns, 900_000 - 360_000);
        let file = captured.to_json("t", 5);
        assert_eq!(file.get("spans").unwrap().as_arr().len(), 6);
        assert!(Json::parse(&file.pretty()).is_ok());
    }

    #[test]
    fn served_waves_are_attributed_to_the_hosts_submit_span() {
        let captured = Captured {
            spans: vec![
                rec(BENCH_WAVE, 1, 10, 0, 0, 1_000),
                SpanRec {
                    tag: 1,
                    ..rec("net.submit", 7, 70, 0, 100, 600)
                },
                // A training wave's submit: no `bench.wave`, not counted.
                rec("net.submit", 8, 80, 0, 2_000, 900),
            ],
            ..Captured::default()
        };
        let s = captured.summarize();
        assert!((s.unattributed_ratio - 0.4).abs() < 1e-9);
        assert_eq!(s.engine_self_us, 0.0);
    }

    #[test]
    fn the_sink_folds_write_events_and_keeps_spans() {
        let Tracer { store, handle } = Tracer::new();
        {
            let _wave = handle.span(BENCH_WAVE, 3);
            handle.trace_event(FOLDED, 0, std::time::Duration::from_nanos(40));
            let _inner = handle.span("wms.wave", 3);
        }
        let captured = store.take();
        assert_eq!(captured.store_writes, 1);
        assert_eq!(captured.spans.len(), 2);
        let outer = captured
            .spans
            .iter()
            .find(|s| s.name == BENCH_WAVE)
            .unwrap();
        let inner = captured
            .spans
            .iter()
            .find(|s| s.name == "wms.wave")
            .unwrap();
        assert_eq!(inner.parent_id, outer.span_id);
        assert_eq!(inner.trace_id, outer.trace_id);
        assert!(store.take().spans.is_empty());
    }
}
