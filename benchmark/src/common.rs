//! Pieces every driver shares: errors, checksums, the decision trail, the
//! wave loop's bookkeeping, process and host facts.

use std::collections::HashSet;
use std::time::Instant;

use smartflux::eval::{evaluate, EvalPolicy, WorkloadFactory};
use smartflux::WaveDiagnostics;
use smartflux_datastore::{DataStore, StoreState};
use smartflux_durability::encode_store_state;
use smartflux_net::DecisionRow;

use crate::workloads::{Workload, SIDE_TABLE};

/// Anything that stops a run. The benchmark drives workloads on which no
/// operation fails, so every error is fatal and carries its context.
pub type BenchResult<T> = Result<T, String>;

/// Adds context to a fallible call.
pub trait Context<T> {
    /// Maps the error to `"<what>: <error>"`.
    fn context(self, what: &str) -> BenchResult<T>;
}

impl<T, E: std::fmt::Display> Context<T> for Result<T, E> {
    fn context(self, what: &str) -> BenchResult<T> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

/// FNV-1a, 64 bit: a checksum for comparing trails and stores between
/// runs, not a defence against anyone.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One row of a decision trail, however it was obtained (engine
/// diagnostics in-process, `DecisionRow`s over the wire).
pub struct TrailRow<'a> {
    pub wave: u64,
    pub training: bool,
    pub impacts: &'a [f64],
    pub decisions: &'a [bool],
}

impl<'a> From<&'a WaveDiagnostics> for TrailRow<'a> {
    fn from(d: &'a WaveDiagnostics) -> Self {
        Self {
            wave: d.wave,
            training: d.training,
            impacts: &d.impacts,
            decisions: &d.decisions,
        }
    }
}

impl<'a> From<&'a DecisionRow> for TrailRow<'a> {
    fn from(d: &'a DecisionRow) -> Self {
        Self {
            wave: d.wave,
            training: d.training,
            impacts: &d.impacts,
            decisions: &d.decisions,
        }
    }
}

/// Checksum of the decision trail up to and including `last_wave`: wave,
/// phase, every impact bit-for-bit and every decision.
pub fn trail_checksum<'a, R: Into<TrailRow<'a>>>(
    rows: impl IntoIterator<Item = R>,
    last_wave: u64,
) -> (u64, u64) {
    let mut h = Fnv::default();
    let mut count = 0;
    for row in rows {
        let row: TrailRow<'a> = row.into();
        if row.wave > last_wave {
            continue;
        }
        count += 1;
        h.u64(row.wave);
        h.u64(u64::from(row.training));
        for v in row.impacts {
            h.u64(v.to_bits());
        }
        for d in row.decisions {
            h.u64(u64::from(*d));
        }
    }
    (h.finish(), count)
}

/// What the correctness gate keeps of a store at the audit wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreMark {
    /// Checksum of the whole state in the durability encoding: tables,
    /// version histories, timestamps, clock.
    pub state: u64,
    /// Checksum of the latest value of every cell outside the side table —
    /// what `lrb` and `lrb_served` must agree on although their write
    /// timestamps differ by the ingest writes.
    pub values: u64,
    /// Logical clock (= writes applied so far).
    pub clock: u64,
    /// Cells outside the side table.
    pub cells: u64,
}

impl StoreMark {
    #[must_use]
    pub fn of(state: &StoreState) -> Self {
        let mut full = Fnv::default();
        full.bytes(&encode_store_state(state));
        let mut values = Fnv::default();
        let mut cells = 0;
        for table in state.tables.iter().filter(|t| t.name != SIDE_TABLE) {
            values.bytes(table.name.as_bytes());
            for family in &table.families {
                values.bytes(family.name.as_bytes());
                for cell in &family.cells {
                    cells += 1;
                    values.bytes(cell.row.as_bytes());
                    values.bytes(cell.qualifier.as_bytes());
                    if let Some((_, v)) = cell.versions.last() {
                        values.bytes(format!("{v:?}").as_bytes());
                    }
                }
            }
        }
        Self {
            state: full.finish(),
            values: values.finish(),
            clock: state.clock,
            cells,
        }
    }
}

/// Names of the managed steps (bounded, not always-run) of a workload —
/// the steps whose executions the engine can save.
#[must_use]
pub fn managed_steps(workload: &Workload, seed: u64) -> HashSet<String> {
    let wf = workload
        .factory(seed, workload.served())
        .build(&DataStore::new());
    wf.qod_steps()
        .into_iter()
        .filter(|id| !wf.info(*id).always_run())
        .map(|id| wf.graph().step_name(id).to_owned())
        .collect()
}

/// Exact counts over the audit prefix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Saved {
    pub executed: u64,
    pub skipped: u64,
}

impl Saved {
    /// Skipped managed-step executions over managed-step opportunities.
    #[must_use]
    pub fn ratio(self) -> f64 {
        let total = self.executed + self.skipped;
        if total == 0 {
            0.0
        } else {
            self.skipped as f64 / total as f64
        }
    }
}

/// What the deterministic twin run says about the audit prefix.
#[derive(Debug, Clone)]
pub struct Audit {
    /// Share of audited waves whose measured ε stayed within `maxε`.
    pub bound_confidence: f64,
    pub audited_waves: u64,
    pub violations: u64,
    /// The twin's managed executions and skips (must equal the run's).
    pub saved: Saved,
    /// The twin's decision trail over training plus the audit prefix.
    pub trail: (u64, u64),
}

/// Runs `smartflux::eval::evaluate` — the workload's adaptive run beside
/// its synchronous ground truth — over the audit prefix. Outside every
/// timed region; the engine it builds is configured exactly like the
/// measured one, so its decisions are the reference the run is checked
/// against.
pub fn twin_audit(workload: &Workload, seed: u64, waves: u64) -> BenchResult<Audit> {
    let factory = workload.factory(seed, false);
    let report = evaluate(
        &factory,
        EvalPolicy::SmartFlux(Box::new(workload.engine_config(seed))),
        waves,
        workload.audit_metric(),
    )
    .context("twin-run audit")?;
    let saved = Saved {
        executed: report.total_managed_executions(),
        skipped: report.total_managed_skips(),
    };
    let last_wave = workload.training_waves as u64 + waves;
    let engine = report
        .engine
        .as_ref()
        .ok_or("twin-run audit returned no engine")?;
    let trail = engine.with(|e| trail_checksum(e.diagnostics(), last_wave));
    Ok(Audit {
        bound_confidence: report.confidence.confidence(),
        audited_waves: report.confidence.waves(),
        violations: report.confidence.violations(),
        saved,
        trail,
    })
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU model string of this host, for the result fingerprint.
#[must_use]
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Hardware threads available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Pins this process to one processor — the lowest it is allowed on — and
/// returns which: the calling thread, and every thread started from here
/// on, so call it before the first. For the open loop, whose round trip
/// otherwise depends on whether a session's threads happen to share a
/// processor (README, "One processor").
#[cfg(target_os = "linux")]
pub fn pin_to_one_processor() -> BenchResult<usize> {
    // The C library's `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable `cpu_set_t` of exactly the size
    // passed, and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return Err("sched_getaffinity failed".into());
    }
    let (word, bits) = allowed
        .iter()
        .enumerate()
        .find(|(_, bits)| **bits != 0)
        .ok_or("the process is allowed on no processor")?;
    let bit = bits.trailing_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live `cpu_set_t` of exactly the size passed, naming
    // a processor the mask just read allows.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return Err("sched_setaffinity failed".into());
    }
    Ok(word * 64 + bit)
}

/// Elsewhere there is nothing to pin with; the open loop runs as placed.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_processor() -> BenchResult<usize> {
    Err("pinning to a processor is implemented for Linux only".into())
}

/// Nanoseconds since `start`, saturating.
#[must_use]
pub fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// `ns` values as sorted microseconds.
#[must_use]
pub fn sorted_us(ns: &[u64]) -> Vec<f64> {
    let mut us: Vec<f64> = ns.iter().map(|v| *v as f64 / 1e3).collect();
    us.sort_by(f64::total_cmp);
    us
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trail_checksum_covers_the_prefix_only_and_every_bit() {
        let row = |wave, impact: f64, d| DecisionRow {
            wave,
            training: wave <= 2,
            impacts: vec![impact],
            decisions: vec![d],
        };
        let rows = vec![row(1, 0.5, true), row(2, 0.25, false), row(3, 0.125, true)];
        let (all, n) = trail_checksum(&rows, 3);
        assert_eq!(n, 3);
        let (prefix, n) = trail_checksum(&rows, 2);
        assert_eq!(n, 2);
        assert_ne!(all, prefix);
        let mut flipped = rows.clone();
        flipped[1].decisions[0] = true;
        assert_ne!(trail_checksum(&flipped, 2).0, prefix);
        let mut nudged = rows;
        nudged[0].impacts[0] = f64::from_bits(0.5f64.to_bits() + 1);
        assert_ne!(trail_checksum(&nudged, 2).0, prefix);
    }

    #[test]
    fn store_mark_values_ignore_the_side_table_and_timestamps() {
        use smartflux_datastore::{ContainerRef, Value};
        let plain = DataStore::new();
        let with_side = DataStore::new();
        for s in [&plain, &with_side] {
            s.ensure_container(&ContainerRef::family("t", "f")).unwrap();
        }
        with_side
            .ensure_container(&ContainerRef::family(SIDE_TABLE, "feed"))
            .unwrap();
        with_side
            .put(SIDE_TABLE, "feed", "s0", "v", Value::from(1.0))
            .unwrap();
        for s in [&plain, &with_side] {
            s.put("t", "f", "r", "v", Value::from(2.0)).unwrap();
        }
        let a = StoreMark::of(&plain.export_state());
        let b = StoreMark::of(&with_side.export_state());
        assert_eq!(a.values, b.values);
        assert_eq!((a.cells, b.cells), (1, 1));
        assert_ne!(a.state, b.state);
        assert_eq!(b.clock, a.clock + 1);
    }

    #[test]
    fn saved_ratio_counts_skips_over_opportunities() {
        assert_eq!(Saved::default().ratio(), 0.0);
        let s = Saved {
            executed: 3,
            skipped: 1,
        };
        assert_eq!(s.ratio(), 0.25);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pinning_leaves_this_thread_and_its_children_one_processor() {
        let allowed = |status: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|v| v.trim().to_owned())
        };
        // Pins the test's own thread only; other tests run on theirs.
        let cpu = pin_to_one_processor().expect("the test may run on some processor");
        let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
        assert_eq!(allowed(&status), Some(cpu.to_string()));
        let child =
            std::thread::spawn(|| std::fs::read_to_string("/proc/thread-self/status").unwrap())
                .join()
                .unwrap();
        assert_eq!(allowed(&child), Some(cpu.to_string()));
    }

    #[test]
    fn host_facts_are_readable() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mb() > 0.0);
        assert!(!cpu_model().is_empty());
    }
}
