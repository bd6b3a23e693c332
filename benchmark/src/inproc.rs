//! The in-process driver: `SmartFluxSession::run_wave` in a closed loop on
//! the calling thread (`lrb`, `aqhi`, `pagerank_wide`, and the in-process
//! shadow the served workloads are compared with).

use std::path::PathBuf;
use std::time::Instant;

use smartflux::eval::WorkloadFactory;
use smartflux::{DurabilityOptions, Phase, SmartFluxSession, SyncPolicy};
use smartflux_datastore::DataStore;
use smartflux_wms::StepId;

use crate::common::{ns_since, BenchResult, Context, Saved, StoreMark};
use crate::hostspeed::{at_reference, HostSpeed};
use crate::trace::{Tracer, BENCH_QUERY, BENCH_SETUP, BENCH_WAVE};
use crate::workloads::{side_writes, Workload};

/// What one driver observed, whatever the transport.
#[derive(Debug, Clone, Default)]
pub struct WaveLog {
    /// Client-observed time of each application wave, in order.
    pub wave_ns: Vec<u64>,
    /// When each of those waves completed, ns since the driver was set up.
    pub done_ns: Vec<u64>,
    /// Sessions folded into this log by `merge`.
    pub sessions: u64,
    /// Round trip of each decision query.
    pub query_ns: Vec<u64>,
    /// Open loop: how late each submission left the generator.
    pub late_ns: Vec<u64>,
    /// Wall time the waves above took, queries included, gate
    /// bookkeeping excluded.
    pub wall_s: f64,
    /// Requests issued and requests that failed (waves and queries).
    pub attempted: u64,
    pub failed: u64,
    /// Managed executions and skips over the audit prefix.
    pub saved: Saved,
    /// The store at the end of the audit prefix.
    pub mark: Option<StoreMark>,
    /// Step executions and skips (every step, managed or not) over the
    /// audit prefix.
    pub steps_executed: u64,
    pub steps_skipped: u64,
    /// Each booked wave's time at reference speed (`hostspeed.rs`): what
    /// `wave_ns` holds, over the host's slowdown while the wave ran.
    pub ref_wave_ns: Vec<f64>,
    /// When each booked wave completed on the reference timeline — the
    /// driver's clock with every slice scaled by its slowdown and the
    /// host samples themselves cut out.
    ref_done_ns: Vec<f64>,
    /// The host slowdowns the waves were booked at, one per slice.
    pub slowdowns: Vec<f64>,
    /// Where the open slice began, on the driver's clock and on the
    /// reference timeline.
    slice_from_ns: u64,
    ref_base_ns: f64,
    /// Per-block completion rates of the sessions merged in.
    block_rates: Vec<f64>,
}

/// Waves per block of the throughput estimate.
const RATE_BLOCK: usize = 100;

impl WaveLog {
    /// Opens the first slice now, on the clock of the driver born at
    /// `born`: what was logged before (nothing, in a measured run) stays
    /// unbooked.
    pub fn open_slice(&mut self, born: Instant) {
        self.slice_from_ns = ns_since(born);
    }

    /// Closes the open slice with a host sample and books the waves
    /// completed in it at reference speed: each wave's time, and its place
    /// on the reference timeline, over the slowdown at the slice's two
    /// ends. The next slice opens when the sample is done, so the sample
    /// itself belongs to neither.
    pub fn book(&mut self, host: &mut HostSpeed, born: Instant) {
        let end_ns = ns_since(born);
        let slowdown = host.close_slice();
        self.book_slice(slowdown, end_ns, ns_since(born));
    }

    fn book_slice(&mut self, slowdown: f64, end_ns: u64, next_ns: u64) {
        self.slowdowns.push(slowdown);
        for i in self.ref_wave_ns.len()..self.wave_ns.len() {
            self.ref_wave_ns.push(self.wave_ns[i] as f64 / slowdown);
            let into_slice = self.done_ns[i].saturating_sub(self.slice_from_ns) as f64;
            self.ref_done_ns
                .push(self.ref_base_ns + into_slice / slowdown);
        }
        self.ref_base_ns += end_ns.saturating_sub(self.slice_from_ns) as f64 / slowdown;
        self.slice_from_ns = next_ns;
    }

    /// Puts the booked waves back on the driver's own clock: the open
    /// loop, whose completions the schedule sets and not the host, so
    /// that its throughput is the rate it kept. Latencies stay as booked.
    pub fn keep_schedule_timeline(&mut self) {
        self.ref_done_ns = self.done_ns.iter().map(|ns| *ns as f64).collect();
        self.ref_base_ns = self.ref_done_ns.last().copied().unwrap_or(0.0);
    }

    /// Forgets every timing taken so far — an open-loop attempt during
    /// which the generator could not keep its schedule. The requests stay
    /// counted as attempted, and the exact counts are the audit prefix's.
    pub fn discard_timings(&mut self) {
        self.wave_ns.clear();
        self.done_ns.clear();
        self.ref_wave_ns.clear();
        self.ref_done_ns.clear();
        self.slowdowns.clear();
        self.query_ns.clear();
        self.late_ns.clear();
        self.wall_s = 0.0;
    }

    /// Completion rate (waves/s, at reference speed) of each consecutive
    /// block of [`RATE_BLOCK`] waves of this session, queries and
    /// everything else between the waves included.
    fn rates(&self) -> Vec<f64> {
        self.ref_done_ns
            .windows(RATE_BLOCK + 1)
            .step_by(RATE_BLOCK)
            .map(|w| RATE_BLOCK as f64 / ((w[RATE_BLOCK] - w[0]) / 1e9))
            .collect()
    }

    /// Sustained throughput of the sessions merged into this log: the
    /// median block rate, times the sessions that ran side by side. A
    /// median over blocks rather than waves over wall time, so that one
    /// stall of the host — a scheduling hiccup, a disk flush — costs one
    /// block and not a slice of the whole figure. Returns the blocks
    /// behind it; with less than one block, waves over wall time.
    #[must_use]
    pub fn waves_per_s(&self) -> (f64, u64) {
        if self.block_rates.is_empty() {
            let seconds = (self.ref_base_ns / 1e9).max(1e-9);
            return (self.ref_wave_ns.len() as f64 / seconds, 0);
        }
        (
            crate::stats::median(&self.block_rates) * self.sessions as f64,
            self.block_rates.len() as u64,
        )
    }

    /// Folds one session's log into this one (wall is the longest:
    /// sessions run side by side).
    pub fn merge(&mut self, other: WaveLog) {
        self.block_rates.extend(other.rates());
        self.ref_base_ns = self.ref_base_ns.max(other.ref_base_ns);
        self.sessions += 1;
        self.wave_ns.extend(other.wave_ns);
        self.ref_wave_ns.extend(other.ref_wave_ns);
        self.slowdowns.extend(other.slowdowns);
        self.query_ns.extend(other.query_ns);
        self.late_ns.extend(other.late_ns);
        self.wall_s = self.wall_s.max(other.wall_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.saved.executed += other.saved.executed;
        self.saved.skipped += other.saved.skipped;
        self.mark = self.mark.or(other.mark);
        self.steps_executed += other.steps_executed;
        self.steps_skipped += other.steps_skipped;
    }
}

/// How an in-process session is built.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// The traced run: `EngineConfig::with_telemetry(true)`, the program's
    /// spans captured, `bench.*` spans opened around the calls into it.
    pub trace: Option<Tracer>,
    /// Apply the served workload's client writes before every wave, as
    /// the host's `execute_submit` does (the shadow of a served run).
    pub side: bool,
    /// Durable under this directory, configured as the host configures
    /// the workload's sessions: no WAL fsync, the same checkpoint interval.
    pub durable: Option<PathBuf>,
}

/// A trained session and the loop state around it.
pub struct Inproc {
    pub session: SmartFluxSession,
    pub store: DataStore,
    workload: &'static Workload,
    seed: u64,
    side: bool,
    managed: Vec<StepId>,
    first_app_wave: u64,
    last_seen: u64,
    /// Seconds spent on the gate's bookkeeping (the store mark), which is
    /// the benchmark's cost and not the workload's.
    gate_s: f64,
    tracer: Option<Tracer>,
    born: Instant,
    /// The host's speed, sampled on this thread from set-up on.
    host: HostSpeed,
    pub log: WaveLog,
}

/// One party of a closed-loop measurement, in-process or served.
pub trait Driver {
    /// Runs one application wave and whatever rides along with it.
    fn step(&mut self) -> BenchResult<()>;
    /// Application waves completed so far.
    fn app_waves(&self) -> u64;
}

impl Driver for Inproc {
    fn step(&mut self) -> BenchResult<()> {
        self.wave()
    }
    fn app_waves(&self) -> u64 {
        Inproc::app_waves(self)
    }
}

impl Inproc {
    /// Builds store, workflow and session, then runs the whole training
    /// phase including the model build — everything an operator waits for
    /// before the first adaptive wave. Returns the seconds it took, at
    /// reference speed.
    pub fn setup(
        workload: &'static Workload,
        seed: u64,
        options: &Options,
    ) -> BenchResult<(Self, f64)> {
        let host = HostSpeed::start();
        let start = Instant::now();
        let _span = options
            .trace
            .as_ref()
            .map(|t| t.handle.span(BENCH_SETUP, seed));
        let store = DataStore::new();
        let workflow = workload.factory(seed, options.side).build(&store);
        let managed: Vec<StepId> = workflow
            .qod_steps()
            .into_iter()
            .filter(|id| !workflow.info(*id).always_run())
            .collect();
        let mut config = workload
            .engine_config(seed)
            .with_telemetry(options.trace.is_some());
        if let Some(dir) = &options.durable {
            config = config.with_durability(
                DurabilityOptions::new(dir)
                    .with_sync(SyncPolicy::Never)
                    .with_checkpoint_interval(workload.checkpoint_interval.max(1)),
            );
        }
        let session =
            SmartFluxSession::new(workflow, store.clone(), config).context("session build")?;
        if let Some(tracer) = &options.trace {
            session.telemetry().set_trace_sink(Some(tracer.sink()));
        }
        let mut this = Self {
            session,
            store,
            workload,
            seed,
            side: options.side,
            managed,
            first_app_wave: 0,
            last_seen: 0,
            gate_s: 0.0,
            tracer: options.trace.clone(),
            born: start,
            host,
            log: WaveLog::default(),
        };
        while matches!(this.session.phase(), Phase::Training { .. }) {
            this.ingest()?;
            this.session.run_wave().context("training wave")?;
            this.host.sample_if_due();
        }
        this.first_app_wave = this.session.scheduler().next_wave();
        // The last training wave builds the model: seconds without a
        // sample, closed by this one.
        this.host.sample();
        let seconds = at_reference(start.elapsed(), &[&this.host]);
        this.host.restart();
        Ok((this, seconds))
    }

    /// Application waves completed so far.
    #[must_use]
    pub fn app_waves(&self) -> u64 {
        self.session.scheduler().next_wave() - self.first_app_wave
    }

    fn ingest(&self) -> BenchResult<()> {
        if self.side {
            let wave = self.session.scheduler().next_wave();
            for w in side_writes(self.seed, 0, wave, self.workload.writes_per_wave) {
                self.store
                    .put(&w.table, &w.family, &w.row, &w.qualifier, w.value)
                    .context("side write")?;
            }
        }
        Ok(())
    }

    /// Runs one application wave (with its ingest writes, if any) and what
    /// rides along: the decision query when one is due, the store mark at
    /// the end of the audit prefix.
    pub fn wave(&mut self) -> BenchResult<()> {
        let span = self.tracer.as_ref().map(|t| {
            t.handle
                .span(BENCH_WAVE, self.session.scheduler().next_wave())
        });
        let start = Instant::now();
        self.ingest()?;
        let outcome = self.session.run_wave();
        self.log.wave_ns.push(ns_since(start));
        self.log.done_ns.push(ns_since(self.born));
        drop(span);
        self.log.attempted += 1;
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                self.log.failed += 1;
                return Err(format!("application wave failed: {e}"));
            }
        };
        let done = self.app_waves();
        if done <= self.workload.audit_waves {
            self.log.steps_executed += outcome.executed.len() as u64;
            self.log.steps_skipped += outcome.skipped.len() as u64;
            for step in &self.managed {
                if outcome.did_execute(*step) {
                    self.log.saved.executed += 1;
                } else if outcome.skipped.contains(step) {
                    self.log.saved.skipped += 1;
                }
            }
        }
        if done.is_multiple_of(self.workload.query_every) {
            self.query();
        }
        if done == self.workload.audit_waves {
            let start = Instant::now();
            self.log.mark = Some(StoreMark::of(&self.store.export_state()));
            self.gate_s += start.elapsed().as_secs_f64();
        }
        Ok(())
    }

    /// Reads the decisions made since the last read, the way an in-process
    /// operator does: `SmartFluxSession::diagnostics()` and keep the tail.
    fn query(&mut self) {
        let _span = self
            .tracer
            .as_ref()
            .map(|t| t.handle.span(BENCH_QUERY, self.last_seen));
        let start = Instant::now();
        let rows = self.session.diagnostics();
        let fresh = rows.iter().filter(|d| d.wave > self.last_seen).count();
        std::hint::black_box(fresh);
        if let Some(last) = rows.last() {
            self.last_seen = last.wave;
        }
        self.log.query_ns.push(ns_since(start));
        self.log.attempted += 1;
    }

    /// Closed loop: waves back to back until `seconds` have passed and the
    /// audit prefix is complete.
    pub fn run_for(&mut self, seconds: f64) -> BenchResult<()> {
        self.host.sample();
        self.log.open_slice(self.born);
        let start = Instant::now();
        let gate_before = self.gate_s;
        let elapsed = |this: &Self| start.elapsed().as_secs_f64() - (this.gate_s - gate_before);
        while elapsed(self) < seconds || self.app_waves() < self.workload.audit_waves {
            self.wave()?;
            if self.host.due() {
                self.log.book(&mut self.host, self.born);
            }
        }
        self.log.wall_s += elapsed(self);
        self.log.book(&mut self.host, self.born);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with_period(period_ns: u64, waves: u64, stall_at: Option<u64>) -> WaveLog {
        let mut log = WaveLog::default();
        let mut now = 0;
        for i in 0..waves {
            now += period_ns + if stall_at == Some(i) { 500_000_000 } else { 0 };
            log.wave_ns.push(period_ns);
            log.done_ns.push(now);
        }
        log.wall_s = now as f64 / 1e9;
        // An undisturbed host: reference speed is the clock's.
        log.book_slice(1.0, now, now);
        log
    }

    #[test]
    fn a_slice_is_booked_at_its_slowdown_and_the_sample_between_is_cut_out() {
        // Two waves of 2 ms in a slice the host ran at half speed...
        let mut log = WaveLog {
            wave_ns: vec![2_000_000, 2_000_000],
            done_ns: vec![2_000_000, 4_000_000],
            ..WaveLog::default()
        };
        log.book_slice(2.0, 4_000_000, 5_000_000);
        // ...a host sample from 4 to 5 ms, then one wave at full speed.
        log.wave_ns.push(1_000_000);
        log.done_ns.push(6_000_000);
        log.book_slice(1.0, 6_000_000, 6_500_000);
        assert_eq!(log.ref_wave_ns, vec![1e6, 1e6, 1e6]);
        assert_eq!(log.ref_done_ns, vec![1e6, 2e6, 3e6]);
        assert_eq!(log.ref_base_ns, 3e6);
        assert_eq!(log.slowdowns, vec![2.0, 1.0]);
    }

    #[test]
    fn an_open_loop_keeps_its_own_timeline_and_a_discarded_attempt_leaves_only_counts() {
        let mut log = WaveLog {
            wave_ns: vec![300_000, 600_000],
            done_ns: vec![1_000_000, 2_000_000],
            late_ns: vec![10, 20],
            attempted: 2,
            ..WaveLog::default()
        };
        log.book_slice(2.0, 2_000_000, 2_000_000);
        assert_eq!(log.ref_wave_ns, vec![150_000.0, 300_000.0]);
        assert_eq!(log.ref_done_ns, vec![5e5, 1e6]);
        log.keep_schedule_timeline();
        assert_eq!(log.ref_wave_ns, vec![150_000.0, 300_000.0]);
        assert_eq!(log.ref_done_ns, vec![1e6, 2e6]);
        log.discard_timings();
        assert!(log.ref_wave_ns.is_empty() && log.late_ns.is_empty() && log.slowdowns.is_empty());
        assert_eq!(log.attempted, 2);
    }

    #[test]
    fn throughput_is_the_median_block_rate_and_shrugs_off_a_stall() {
        let merged = |log: WaveLog| {
            let mut all = WaveLog::default();
            all.merge(log);
            all
        };
        let steady = merged(log_with_period(1_000_000, 1000, None));
        let (rate, blocks) = steady.waves_per_s();
        assert!((rate - 1000.0).abs() < 1e-6);
        assert_eq!(blocks, 9);
        let stalled = merged(log_with_period(1_000_000, 1000, Some(450)));
        assert!((stalled.waves_per_s().0 - 1000.0).abs() < 1e-6);
        assert!(stalled.wave_ns.len() as f64 / stalled.wall_s < 700.0);
    }

    #[test]
    fn merged_sessions_add_their_rates() {
        let mut both = WaveLog::default();
        both.merge(log_with_period(1_000_000, 500, None));
        both.merge(log_with_period(1_000_000, 500, None));
        assert!((both.waves_per_s().0 - 2000.0).abs() < 1e-6);
        assert_eq!(both.wave_ns.len(), 1000);
    }

    #[test]
    fn a_run_shorter_than_a_block_falls_back_to_waves_over_wall() {
        let mut short = WaveLog::default();
        short.merge(log_with_period(2_000_000, 40, None));
        assert!((short.waves_per_s().0 - 500.0).abs() < 1e-6);
    }
}
