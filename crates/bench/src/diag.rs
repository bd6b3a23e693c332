//! Machine-readable `diagnose --json` sections.
//!
//! The JSON schema is consumed by dashboards and the CI scrape job, so it
//! is versioned: [`SCHEMA_VERSION`] bumps whenever a field changes
//! meaning or moves. Sections that would carry no information for a run
//! are omitted entirely instead of being emitted as all-zero objects —
//! a run without fault injection has no `fault_tolerance` key, a run
//! without durability has no `durability` key, and a run that never published
//! store-lock statistics has no `store` key.

use smartflux::QodEngine;
use smartflux_ml::StepRule;
use smartflux_telemetry::{json_string, names, MetricsSnapshot};

/// Version of the `diagnose --json` object layout.
///
/// History: 1 = original flat layout with always-present sections;
/// 2 = added `schema_version`, empty sections omitted;
/// 3 = added the `static_analysis` section (tidy findings + lock-order
/// graph summary), present whenever the workspace sources are reachable;
/// 4 = the `store` section lost `shards` (the store has one lock);
/// 5 = `static_analysis` lost its `lock_order` object (the check is gone);
/// 6 = `durability` lost `wal_bytes` and `wal_records` (no session logs);
/// 7 = the `store` section lost `reads` (nothing counts reads);
/// 8 = the `static_analysis` section is gone (CI's tidy report is the
/// static-analysis record);
/// 9 = added the `step_rules` section;
/// 10 = each `step_rules` entry gained `monitored`.
pub const SCHEMA_VERSION: u64 = 10;

/// The `fault_tolerance` section, or `None` when the run saw no aborts,
/// retries, failures, or SDF fallbacks (nothing to report).
#[must_use]
pub fn fault_tolerance_json(snapshot: &MetricsSnapshot) -> Option<String> {
    let aborted = snapshot.counter(names::WAVES_ABORTED);
    let retries = snapshot.counter(names::STEP_RETRIES);
    let failed = snapshot.counter(names::STEPS_FAILED);
    let fallbacks = snapshot.counter(names::SDF_FALLBACKS);
    if aborted == 0 && retries == 0 && failed == 0 && fallbacks == 0 {
        return None;
    }
    Some(format!(
        "{{\"waves_aborted\":{aborted},\"step_retries\":{retries},\
         \"steps_failed\":{failed},\"sdf_fallbacks\":{fallbacks}}}"
    ))
}

/// The `durability` section, or `None` when the run wrote no checkpoint
/// and recovered nothing (durability not configured).
#[must_use]
pub fn durability_json(snapshot: &MetricsSnapshot) -> Option<String> {
    let checkpoints = snapshot.counter(names::CHECKPOINTS);
    let recoveries = snapshot.counter(names::RECOVERIES);
    if checkpoints == 0 && recoveries == 0 {
        return None;
    }
    Some(format!(
        "{{\"checkpoints\":{checkpoints},\"recoveries\":{recoveries}}}"
    ))
}

/// The `store` section, or `None` when store-lock statistics were never
/// published (the `store.shard_write_contention` gauge is absent, not
/// merely zero).
#[must_use]
pub fn store_json(snapshot: &MetricsSnapshot) -> Option<String> {
    if !snapshot
        .gauges
        .contains_key(names::STORE_SHARD_WRITE_CONTENTION)
    {
        return None;
    }
    Some(format!(
        "{{\"writes\":{},\"shard_read_contention\":{},\
         \"shard_write_contention\":{},\"quiesces\":{}}}",
        snapshot.counter(names::STORE_WRITES),
        snapshot.gauge(names::STORE_SHARD_READ_CONTENTION),
        snapshot.gauge(names::STORE_SHARD_WRITE_CONTENTION),
        snapshot.gauge(names::STORE_QUIESCES),
    ))
}

/// How often `rule`'s decision (`vote ≥ threshold`) flips between
/// adjacent pieces along the impact axis: 0 for a step that always or
/// never runs, 1 for a single-cut trigger.
#[must_use]
pub fn decision_flips(rule: &StepRule) -> usize {
    rule.votes()
        .windows(2)
        .filter(|w| (w[0] >= rule.threshold()) != (w[1] >= rule.threshold()))
        .count()
}

/// The `step_rules` section: per QoD step, the number of cuts in its
/// compiled rule, its [`decision_flips`] and whether its ι is measured
/// ([`QodEngine::monitored`]); `None` while the predictor is untrained.
#[must_use]
pub fn step_rules_json(engine: &QodEngine) -> Option<String> {
    let predictor = engine.predictor();
    let steps: Option<Vec<String>> = engine
        .qod_step_names()
        .iter()
        .enumerate()
        .map(|(j, name)| {
            predictor.rule(j).map(|rule| {
                format!(
                    "{{\"step\":{},\"cuts\":{},\"flips\":{},\"monitored\":{}}}",
                    json_string(name),
                    rule.cuts().len(),
                    decision_flips(rule),
                    engine.monitored(j)
                )
            })
        })
        .collect();
    steps.map(|steps| format!("[{}]", steps.join(",")))
}

/// Renders the optional sections as `,"name":{...}` fragments ready to
/// splice into the per-workload JSON object. Empty sections contribute
/// nothing.
#[must_use]
pub fn optional_sections(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (key, section) in [
        ("fault_tolerance", fault_tolerance_json(snapshot)),
        ("durability", durability_json(snapshot)),
        ("store", store_json(snapshot)),
    ] {
        if let Some(json) = section {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":");
            out.push_str(&json);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartflux_telemetry::Telemetry;

    #[test]
    fn flips_count_threshold_crossings_between_pieces() {
        use smartflux_ml::{Classifier, Dataset, RandomForest};

        let data = Dataset::new(
            (0..40).map(|i| vec![f64::from(i)]).collect(),
            (0..40).map(|i| (10..20).contains(&i)).collect(),
        )
        .unwrap();
        let mut forest = RandomForest::new(1).with_seed(1);
        forest.fit(&data).unwrap();
        let rule = StepRule::compile(&forest).unwrap();
        // One tree, labels positive on [10, 20): off, on, off.
        assert_eq!(decision_flips(&rule), 2, "{rule:?}");
    }

    #[test]
    fn clean_run_omits_every_optional_section() {
        let t = Telemetry::enabled();
        t.counter(names::STEPS_EXECUTED).add(10);
        let snapshot = t.snapshot();
        assert_eq!(fault_tolerance_json(&snapshot), None);
        assert_eq!(durability_json(&snapshot), None);
        assert_eq!(store_json(&snapshot), None);
        assert_eq!(optional_sections(&snapshot), "");
    }

    #[test]
    fn active_sections_appear_with_their_counters() {
        let t = Telemetry::enabled();
        t.counter(names::STEP_RETRIES).add(3);
        t.counter(names::CHECKPOINTS).add(7);
        t.gauge(names::STORE_SHARD_WRITE_CONTENTION).set(2);
        let snapshot = t.snapshot();

        let fault = fault_tolerance_json(&snapshot).expect("retries present");
        assert!(fault.contains("\"step_retries\":3"));
        let durability = durability_json(&snapshot).expect("checkpoints present");
        assert!(durability.contains("\"checkpoints\":7"));
        let store = store_json(&snapshot).expect("contention gauge present");
        assert!(store.contains("\"shard_write_contention\":2"));

        let sections = optional_sections(&snapshot);
        assert!(sections.starts_with(",\"fault_tolerance\":{"));
        assert!(sections.contains(",\"durability\":{"));
        assert!(sections.contains(",\"store\":{"));
    }

    #[test]
    fn zero_contention_gauge_still_counts_as_published() {
        // Presence, not value, decides: a published all-zero stats block
        // (e.g. a store that saw no contention) must stay visible.
        let t = Telemetry::enabled();
        t.gauge(names::STORE_SHARD_WRITE_CONTENTION).set(0);
        assert!(store_json(&t.snapshot()).is_some());
    }
}
