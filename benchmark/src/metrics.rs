//! The metric glossary: every name the benchmark prints, with its unit,
//! direction and — for end-to-end metrics — regression bound. The names are
//! normative; a unit test keeps them in step with `BENCHMARK.json`.

use crate::json::{obj, Json};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// How much worse `candidate` is than `base`, as a share of `base`
    /// (negative when it is better).
    #[must_use]
    pub fn worsening(self, base: f64, candidate: f64) -> f64 {
        if base == 0.0 {
            return 0.0;
        }
        match self {
            Better::Higher => (base - candidate) / base.abs(),
            Better::Lower => (candidate - base) / base.abs(),
        }
    }
}

/// A metric definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change is rejected; 0 for per-layer metrics (no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

/// What an operator of a continuous workflow sees. Measured with telemetry
/// and tracing off. README § "End-to-end metrics" defines each, and says
/// why the bounds are what they are: the contract wants each metric's
/// run-to-run spread inside its bound, and this is what the seed host's
/// spread allows.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("waves_per_s", "1/s", Higher, 0.25),
    e2e("wave_p50_us", "us", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("saved_ratio", "ratio", Higher, 0.25),
];

/// One layer's own numbers (layers = crates), from the probe pass and the
/// traced run. README § "Per-layer metrics" says which end-to-end metric
/// each should move, on which workload. A layer that does not run in a
/// workload reports 0 there.
pub const PER_LAYER: [MetricDef; 47] = [
    layer("wms.sync_wave_us", "us", Lower),
    layer("wms.step_total_us", "us", Lower),
    layer("wms.steps_executed", "count", Lower),
    layer("wms.steps_skipped", "count", Higher),
    layer("core.engine_self_us", "us", Lower),
    layer("core.impact_us", "us", Lower),
    layer("core.predict_us", "us", Lower),
    layer("core.observer_ns_per_write", "ns", Lower),
    layer("core.train_ms", "ms", Lower),
    layer("core.diagnostics_clone_us", "us", Lower),
    layer("core.kb_rows", "count", Lower),
    layer("core.diag_rows", "count", Lower),
    layer("datastore.put_ns", "ns", Lower),
    layer("datastore.get_ns", "ns", Lower),
    layer("datastore.scan_us", "us", Lower),
    layer("datastore.snapshot_us", "us", Lower),
    layer("datastore.diff_us", "us", Lower),
    layer("datastore.export_state_ms", "ms", Lower),
    layer("datastore.writes_per_wave", "count", Lower),
    layer("datastore.reads_per_wave", "count", Lower),
    layer("datastore.cells", "count", Lower),
    layer("datastore.shard_write_contention", "count", Lower),
    layer("ml.predict_all_ns", "ns", Lower),
    layer("ml.fit_ms", "ms", Lower),
    layer("ml.forest_nodes", "count", Lower),
    layer("durability.commit_us", "us", Lower),
    layer("durability.commit_fsync_us", "us", Lower),
    layer("durability.checkpoint_ms", "ms", Lower),
    layer("durability.recover_store_ms", "ms", Lower),
    layer("durability.wal_bytes_per_wave", "bytes", Lower),
    layer("durability.checkpoint_bytes", "bytes", Lower),
    layer("net.encode_ns", "ns", Lower),
    layer("net.decode_ns", "ns", Lower),
    layer("net.frame_bytes_per_wave", "bytes", Lower),
    layer("net.ingest_rtt_us", "us", Lower),
    layer("net.plane_us", "us", Lower),
    layer("net.query_decisions_us", "us", Lower),
    layer("net.query_store_ms", "ms", Lower),
    layer("net.busy_rejections", "count", Lower),
    layer("net.recover_s", "s", Lower),
    layer("telemetry.trace_overhead_ratio", "ratio", Lower),
    layer("bench.gen_late_p99_us", "us", Lower),
    layer("bench.unattributed_ratio", "ratio", Lower),
    // Demoted from the end-to-end list: each fails, on at least one
    // workload, to repeat within any bound the contract admits (README,
    // "Demoted metrics"). Reported by the per-layer pass, unbounded.
    layer("wave_p99_us", "us", Lower),
    layer("query_p50_us", "us", Lower),
    layer("bound_confidence", "ratio", Higher),
    layer("peak_rss_mb", "MiB", Lower),
];

/// Looks up an end-to-end metric by name.
#[cfg(test)]
#[must_use]
pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Measured values, in glossary order, with the sample count behind each.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    values: Vec<(&'static str, f64, u64)>,
}

impl Measured {
    /// Records `value` for `name`, measured from `n` samples.
    pub fn put(&mut self, name: &'static str, value: f64, n: u64) {
        match self.values.iter_mut().find(|(k, _, _)| *k == name) {
            Some(slot) => *slot = (name, value, n),
            None => self.values.push((name, value, n)),
        }
    }

    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(k, _, _)| *k == name)
            .map(|(_, v, _)| *v)
    }

    /// The `metrics` object of the driver's result line: every metric of
    /// `defs`, in order, `{"value": .., "unit": ..}`; unmeasured ones are 0.
    #[must_use]
    pub fn driver_metrics(&self, defs: &[MetricDef]) -> Json {
        Json::Obj(
            defs.iter()
                .map(|d| {
                    let value = self.get(d.name).unwrap_or(0.0);
                    (
                        d.name.to_owned(),
                        obj([("value", value.into()), ("unit", d.unit.into())]),
                    )
                })
                .collect(),
        )
    }

    /// The detail rendering: value, unit, direction and n per metric.
    #[must_use]
    pub fn detail(&self, defs: &[MetricDef]) -> Json {
        Json::Obj(
            defs.iter()
                .map(|d| {
                    let (value, n) = self
                        .values
                        .iter()
                        .find(|(k, _, _)| *k == d.name)
                        .map_or((0.0, 0), |(_, v, n)| (*v, *n));
                    (
                        d.name.to_owned(),
                        obj([
                            ("value", value.into()),
                            ("unit", d.unit.into()),
                            ("better", d.better.as_str().into()),
                            ("n", n.into()),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .unwrap()
            .as_arr()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_owned();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_this_glossary() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let ours = |defs: &[MetricDef], bounded: bool| -> Vec<_> {
            defs.iter()
                .map(|d| {
                    (
                        d.name.to_owned(),
                        d.unit.to_owned(),
                        d.better.as_str().to_owned(),
                        bounded.then_some(d.bound),
                    )
                })
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), ours(&END_TO_END, true));
        assert_eq!(listed(&doc, "per_layer"), ours(&PER_LAYER, false));
    }

    #[test]
    fn the_contract_limits_hold() {
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((Lower.worsening(100.0, 112.0) - 0.12).abs() < 1e-12);
        assert!((Higher.worsening(100.0, 88.0) - 0.12).abs() < 1e-12);
        assert!(Higher.worsening(100.0, 120.0) < 0.0);
        assert_eq!(Lower.worsening(0.0, 5.0), 0.0);
    }

    #[test]
    fn driver_metrics_carry_every_definition() {
        let mut m = Measured::default();
        m.put("setup_s", 1.25, 3);
        let rendered = m.driver_metrics(&END_TO_END);
        assert_eq!(rendered.members().len(), END_TO_END.len());
        assert_eq!(
            rendered.get("setup_s").unwrap().compact(),
            r#"{"value":1.25,"unit":"s"}"#
        );
        assert_eq!(
            rendered
                .get("waves_per_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
