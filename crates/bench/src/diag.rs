//! Machine-readable `diagnose --json` sections.
//!
//! The JSON schema is consumed by dashboards and the CI scrape job, so it
//! is versioned: [`SCHEMA_VERSION`] bumps whenever a field changes
//! meaning or moves. Sections that would carry no information for a run
//! are omitted entirely instead of being emitted as all-zero objects —
//! a run without fault injection has no `fault_tolerance` key, a run
//! without a WAL has no `durability` key, and a run that never published
//! store-lock statistics has no `store` key.

use smartflux_telemetry::{names, MetricsSnapshot};

/// Version of the `diagnose --json` object layout.
///
/// History: 1 = original flat layout with always-present sections;
/// 2 = added `schema_version`, empty sections omitted;
/// 3 = added the `static_analysis` section (tidy findings + lock-order
/// graph summary), present whenever the workspace sources are reachable;
/// 4 = the `store` section lost `shards` (the store has one lock);
/// 5 = `static_analysis` lost its `lock_order` object (the check is gone).
pub const SCHEMA_VERSION: u64 = 5;

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

/// The `durability` section, or `None` when the run wrote no WAL at all
/// (durability not configured).
#[must_use]
pub fn durability_json(snapshot: &MetricsSnapshot) -> Option<String> {
    let wal_bytes = snapshot.counter(names::WAL_BYTES);
    let wal_records = snapshot.counter(names::WAL_RECORDS);
    let checkpoints = snapshot.counter(names::CHECKPOINTS);
    let recoveries = snapshot.counter(names::RECOVERIES);
    if wal_bytes == 0 && wal_records == 0 && checkpoints == 0 && recoveries == 0 {
        return None;
    }
    Some(format!(
        "{{\"wal_bytes\":{wal_bytes},\"wal_records\":{wal_records},\
         \"checkpoints\":{checkpoints},\"recoveries\":{recoveries}}}"
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
        "{{\"reads\":{},\"writes\":{},\"shard_read_contention\":{},\
         \"shard_write_contention\":{},\"quiesces\":{}}}",
        snapshot.counter(names::STORE_READS),
        snapshot.counter(names::STORE_WRITES),
        snapshot.gauge(names::STORE_SHARD_READ_CONTENTION),
        snapshot.gauge(names::STORE_SHARD_WRITE_CONTENTION),
        snapshot.gauge(names::STORE_QUIESCES),
    ))
}

/// The `static_analysis` section: a fresh tidy run over the workspace
/// sources, summarized (finding counts per check). `None` when no workspace root is reachable from the
/// current directory — e.g. an installed binary run outside the repo —
/// matching the omit-empty doctrine above.
///
/// This re-analyzes the sources on every call (~0.1 s for the full
/// workspace); `diagnose` is a diagnostic tool, staleness would be
/// worse than the latency.
#[must_use]
pub fn static_analysis_json() -> Option<String> {
    use smartflux_tidy::checks::ALL_CHECKS;
    use smartflux_tidy::runner;

    let cwd = std::env::current_dir().ok()?;
    let root = runner::find_workspace_root(&cwd).ok()?;
    let units = runner::load_workspace(&root).ok()?;
    let diagnostics = runner::run_checks(&units, &ALL_CHECKS);

    let mut by_check: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for d in &diagnostics {
        *by_check.entry(d.check.as_str()).or_insert(0) += 1;
    }
    let by_check = by_check
        .iter()
        .map(|(check, n)| format!("\"{check}\":{n}"))
        .collect::<Vec<_>>()
        .join(",");
    Some(format!(
        "{{\"checks\":{},\"files\":{},\"crates\":{},\"finding_count\":{},\
         \"findings_by_check\":{{{by_check}}}}}",
        ALL_CHECKS.len(),
        units.iter().map(|u| u.files.len()).sum::<usize>(),
        units.len(),
        diagnostics.len(),
    ))
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
        t.counter(names::WAL_RECORDS).add(7);
        t.gauge(names::STORE_SHARD_WRITE_CONTENTION).set(2);
        let snapshot = t.snapshot();

        let fault = fault_tolerance_json(&snapshot).expect("retries present");
        assert!(fault.contains("\"step_retries\":3"));
        let durability = durability_json(&snapshot).expect("wal present");
        assert!(durability.contains("\"wal_records\":7"));
        let store = store_json(&snapshot).expect("contention gauge present");
        assert!(store.contains("\"shard_write_contention\":2"));

        let sections = optional_sections(&snapshot);
        assert!(sections.starts_with(",\"fault_tolerance\":{"));
        assert!(sections.contains(",\"durability\":{"));
        assert!(sections.contains(",\"store\":{"));
    }

    #[test]
    fn static_analysis_section_summarizes_the_tidy_run() {
        // Tests run with the crate directory as cwd, inside the workspace,
        // so the section must materialize.
        match static_analysis_json() {
            Some(json) => {
                assert!(!json.contains("lock_order"), "{json}");
                assert!(json.starts_with("{\"checks\":10,"), "{json}");
                assert!(json.contains("\"finding_count\":"), "{json}");
                assert!(json.contains("\"findings_by_check\":{"), "{json}");
            }
            None => unreachable!("workspace root not reachable from test cwd"),
        }
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
