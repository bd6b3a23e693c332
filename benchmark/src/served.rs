//! The served drivers: the same waves through a loopback `NetServer` —
//! SFNP frames, the host's per-session queue, a durable session with WAL
//! and periodic checkpoints — in a closed loop (`lrb_served`) or on a
//! fixed schedule (`ramp_open`).

use std::collections::HashSet;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use smartflux_datastore::DataStore;
use smartflux_net::{Client, EngineHost, HostConfig, NetError, NetServer, SessionSpec};
use smartflux_telemetry::Telemetry;

use crate::common::{managed_steps, ns_since, BenchResult, Context, StoreMark};
use crate::hostspeed::{at_reference, HostSpeed};
use crate::inproc::{Driver, WaveLog};
use crate::trace::{Tracer, BENCH_QUERY, BENCH_RECOVER, BENCH_SETUP, BENCH_WAVE};
use crate::workloads::{side_writes, Drive, Workload};

/// Engine worker threads of the host: the issue's `EngineHost{workers: 2}`.
const HOST_WORKERS: usize = 2;

/// A loopback server hosting one workload, plus the handles the harness
/// keeps on the side.
pub struct Server {
    server: NetServer,
    pub addr: SocketAddr,
    root: PathBuf,
    /// Every store a session of this server was built over, in order of
    /// creation (captured by the registry closure — the host itself does
    /// not expose its sessions).
    pub stores: Arc<Mutex<Vec<DataStore>>>,
    /// The host's telemetry handle (`net.*` instruments; enabled only on
    /// the traced run).
    pub telemetry: Telemetry,
}

impl Server {
    /// Starts a host with durable sessions under `root` behind a loopback
    /// listener. With `trace`, host and session telemetry are on and
    /// the host's spans go to the sink.
    pub fn start(
        workload: &'static Workload,
        seed: u64,
        root: &Path,
        trace: Option<&Tracer>,
    ) -> BenchResult<Self> {
        let stores = Arc::new(Mutex::new(Vec::new()));
        let captured = Arc::clone(&stores);
        let registry = workload.registry(
            seed,
            trace.is_some(),
            Arc::new(move |store: &DataStore| {
                captured
                    .lock()
                    .expect("store list lock is never poisoned: pushes cannot panic")
                    .push(store.clone());
            }),
        );
        let telemetry = if trace.is_some() {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        telemetry.set_trace_sink(trace.map(Tracer::sink));
        let host = EngineHost::new(
            registry,
            HostConfig::new()
                .with_workers(HOST_WORKERS)
                .with_durability_root(root)
                .with_checkpoint_interval(workload.checkpoint_interval),
            telemetry.clone(),
        );
        // A listener thread serves one connection at a time; one spare
        // accepts the recovery probe and shutdown pokes.
        let server = NetServer::start("127.0.0.1:0", host, workload.connections + 1)
            .context("bind loopback listener")?;
        Ok(Self {
            addr: server.addr(),
            server,
            root: root.to_owned(),
            stores,
            telemetry,
        })
    }

    /// Orderly shutdown (checkpoints durable sessions).
    pub fn shutdown(self) {
        let _ = self.server.shutdown();
    }

    /// Simulated crash, then recovery: a new host over the same durability
    /// root answers `open_session{resume: true}` for connection 0's
    /// session. Returns the recovery time (from after the crash) and the
    /// wave the session resumes at.
    pub fn kill_and_recover(
        self,
        workload: &'static Workload,
        seed: u64,
        trace: Option<&Tracer>,
    ) -> BenchResult<(f64, u64)> {
        let root = self.root.clone();
        self.server.kill();
        let _span = trace.map(|t| t.handle.span(BENCH_RECOVER, seed));
        let start = Instant::now();
        let server = Server::start(workload, seed, &root, None)?;
        let mut client = Client::connect(server.addr).context("reconnect after crash")?;
        let opened = client
            .open_session(&SessionSpec {
                workload: workload.name.to_owned(),
                seed: Some(seed),
                durable_key: Some(durable_key(0)),
                resume: true,
                ..SessionSpec::default()
            })
            .context("resume session after crash")?;
        let seconds = start.elapsed().as_secs_f64();
        if !opened.resumed {
            return Err("recovery opened a fresh session instead of resuming".into());
        }
        drop(client);
        server.shutdown();
        Ok((seconds, opened.next_wave))
    }
}

fn durable_key(connection: usize) -> String {
    format!("c{connection}")
}

/// One connection and its session.
pub struct Served {
    client: Client,
    pub session: u64,
    workload: &'static Workload,
    seed: u64,
    connection: usize,
    managed: HashSet<String>,
    /// The wave the next submission will run.
    next_wave: u64,
    first_app_wave: u64,
    last_seen: u64,
    gate_s: f64,
    tracer: Option<Tracer>,
    /// The most recent wave's report, kept for the codec probe.
    pub last_report: Option<smartflux_net::WaveReport>,
    born: Instant,
    /// The host's speed, sampled on this connection's thread from set-up
    /// on (between round trips, when nothing of the session is running).
    host: HostSpeed,
    pub log: WaveLog,
}

impl Driver for Served {
    fn step(&mut self) -> BenchResult<()> {
        self.wave().map(|_| ())
    }
    fn app_waves(&self) -> u64 {
        Served::app_waves(self)
    }
}

impl Served {
    /// Connects, opens a durable session and submits the training phase.
    fn open(
        addr: SocketAddr,
        workload: &'static Workload,
        seed: u64,
        connection: usize,
        tracer: Option<Tracer>,
    ) -> BenchResult<Self> {
        let host = HostSpeed::start();
        let mut client = Client::connect(addr).context("connect")?;
        let opened = client
            .open_session(&SessionSpec {
                workload: workload.name.to_owned(),
                seed: Some(seed),
                durable_key: Some(durable_key(connection)),
                ..SessionSpec::default()
            })
            .context("open session")?;
        let mut this = Self {
            client,
            session: opened.session,
            workload,
            seed,
            connection,
            managed: managed_steps(workload, seed),
            next_wave: opened.next_wave,
            first_app_wave: 0,
            last_seen: 0,
            gate_s: 0.0,
            tracer,
            last_report: None,
            born: Instant::now(),
            host,
            log: WaveLog::default(),
        };
        for _ in 0..workload.training_waves {
            this.host.sample_if_due();
            let report = this
                .client
                .submit_wave(this.session, this.batch())
                .context("training wave")?;
            if !report.training {
                return Err(format!(
                    "wave {} left the training phase early",
                    report.wave
                ));
            }
            this.next_wave = report.wave + 1;
        }
        this.first_app_wave = this.next_wave;
        this.host.sample();
        Ok(this)
    }

    fn batch(&self) -> Vec<smartflux_net::ContainerWrite> {
        side_writes(
            self.seed,
            self.connection,
            self.next_wave,
            self.workload.writes_per_wave,
        )
    }

    /// Application waves completed so far.
    #[must_use]
    pub fn app_waves(&self) -> u64 {
        self.next_wave - self.first_app_wave
    }

    /// Submits one application wave; `due` is when it should have left
    /// (open loop) — latency counts from there. A refusal or error is a
    /// failed request, counted once and never retried.
    fn submit(&mut self, due: Option<Instant>) -> BenchResult<()> {
        let batch = self.batch();
        let span = self
            .tracer
            .as_ref()
            .map(|t| t.handle.span(BENCH_WAVE, self.next_wave));
        let sent = Instant::now();
        let result = self.client.submit_wave(self.session, batch);
        let from = due.unwrap_or(sent);
        let latency = ns_since(from);
        drop(span);
        self.log.attempted += 1;
        if let Some(due) = due {
            self.log.late_ns.push(
                u64::try_from(sent.saturating_duration_since(due).as_nanos()).unwrap_or(u64::MAX),
            );
        }
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                self.log.failed += 1;
                // `Busy` leaves the connection usable; anything else ends
                // the run.
                return match e {
                    NetError::Busy => Ok(()),
                    other => Err(format!("submit_wave failed: {other}")),
                };
            }
        };
        self.log.wave_ns.push(latency);
        self.log.done_ns.push(ns_since(self.born));
        if report.training {
            return Err(format!(
                "wave {} is still training: the session never reached the application phase",
                report.wave
            ));
        }
        self.next_wave = report.wave + 1;
        if self.app_waves() <= self.workload.audit_waves {
            self.log.steps_executed += report.executed.len() as u64;
            self.log.steps_skipped += report.skipped.len() as u64;
            for step in &self.managed {
                if report.executed.contains(step) {
                    self.log.saved.executed += 1;
                } else if report.skipped.contains(step) {
                    self.log.saved.skipped += 1;
                }
            }
        }
        self.last_report = Some(report);
        Ok(())
    }

    /// `Client::query_decisions(since = last seen)`.
    fn query(&mut self) -> BenchResult<()> {
        let _span = self
            .tracer
            .as_ref()
            .map(|t| t.handle.span(BENCH_QUERY, self.last_seen));
        let start = Instant::now();
        let rows = self
            .client
            .query_decisions(self.session, self.last_seen + 1);
        self.log.attempted += 1;
        match rows {
            Ok(rows) => {
                self.log.query_ns.push(ns_since(start));
                if let Some(last) = rows.last() {
                    self.last_seen = last.wave;
                }
                Ok(())
            }
            Err(e) => {
                self.log.failed += 1;
                Err(format!("query_decisions failed: {e}"))
            }
        }
    }

    /// `Client::query_store`, kept as the gate's store mark.
    fn mark(&mut self) -> BenchResult<f64> {
        let start = Instant::now();
        self.log.attempted += 1;
        match self.client.query_store(self.session) {
            Ok((_, state)) => {
                let seconds = start.elapsed().as_secs_f64();
                // Reading the store is the workload's; checksumming it is
                // the gate's.
                let hashing = Instant::now();
                self.log.mark = Some(StoreMark::of(&state));
                self.gate_s += hashing.elapsed().as_secs_f64();
                Ok(seconds)
            }
            Err(e) => {
                self.log.failed += 1;
                Err(format!("query_store failed: {e}"))
            }
        }
    }

    /// One closed-loop step: the wave, then the queries that are due.
    /// Returns the `query_store` round trip when one was issued.
    pub fn wave(&mut self) -> BenchResult<Option<f64>> {
        self.submit(None)?;
        let done = self.app_waves();
        if done.is_multiple_of(self.workload.query_every) {
            self.query()?;
        }
        if done == self.workload.audit_waves {
            // `lrb_served` reads the whole store once per run, at the end
            // of the audit prefix; the read is the workload's (an operator
            // pulling a store image), checksumming it is the gate's.
            let rtt = self.mark()?;
            return Ok(Some(rtt));
        }
        Ok(None)
    }

    /// Closed loop until `seconds` have passed and the audit prefix is
    /// complete.
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

    /// Open loop: `ticks` submissions on an absolute schedule starting at
    /// `start`, one every `interval`, each sent as soon as it is due and
    /// the connection is free. Deadlines never move: a stall makes later
    /// submissions late (and their latency, counted from the deadline,
    /// long) instead of quietly lowering the rate.
    pub fn run_schedule(
        &mut self,
        start: Instant,
        interval: Duration,
        ticks: u64,
    ) -> BenchResult<()> {
        self.host.sample();
        self.log.open_slice(self.born);
        for tick in 0..ticks {
            let due = start + interval.mul_f64(tick as f64);
            wait_until(due);
            self.submit(Some(due))?;
            if self.app_waves().is_multiple_of(self.workload.query_every) {
                self.query()?;
            }
            if self.host.due_after(OPEN_SLICE) {
                self.log.book(&mut self.host, self.born);
            }
        }
        self.log.book(&mut self.host, self.born);
        self.log.wall_s += start.elapsed().as_secs_f64();
        Ok(())
    }

    /// The whole decision trail (training included), over the wire.
    pub fn trail(&mut self) -> BenchResult<Vec<smartflux_net::DecisionRow>> {
        self.client
            .query_decisions(self.session, 0)
            .context("query_decisions(0)")
    }

    /// Store mark outside the workload (after an open-loop run).
    pub fn mark_now(&mut self) -> BenchResult<()> {
        self.mark().map(|_| ())
    }

    /// Direct access for probes that time single client calls.
    pub fn client(&mut self) -> (&mut Client, u64) {
        (&mut self.client, self.session)
    }

    /// The write batch the next wave would carry.
    #[must_use]
    pub fn next_batch(&self) -> Vec<smartflux_net::ContainerWrite> {
        self.batch()
    }
}

/// Starts the server and brings every connection's session through its
/// training phase (connections in parallel, as they will run). Returns
/// the seconds until all were ready, at reference speed: server start,
/// session open and the whole training phase including the model build.
pub fn setup(
    workload: &'static Workload,
    seed: u64,
    root: &Path,
    trace: Option<&Tracer>,
) -> BenchResult<(Server, Vec<Served>, f64)> {
    let start = Instant::now();
    let _span = trace.map(|t| t.handle.span(BENCH_SETUP, seed));
    let server = Server::start(workload, seed, root, trace)?;
    let addr = server.addr;
    let mut connections = side_by_side(0..workload.connections, |c| {
        Served::open(addr, workload, seed, c, trace.cloned())
    })?;
    let hosts: Vec<&HostSpeed> = connections.iter().map(|c| &c.host).collect();
    let seconds = at_reference(start.elapsed(), &hosts);
    for c in &mut connections {
        c.host.restart();
    }
    Ok((server, connections, seconds))
}

/// Yields until `due`. The generator never sleeps: on the seed host, a
/// virtual machine, a processor with nothing to run halts, and waking it
/// costs the hypervisor tens to hundreds of microseconds. With the
/// generators yielding, runnable server threads still get the processor
/// first, and the submission leaves on time (README, "One processor").
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// How often an open-loop generator samples the host's speed. A sample
/// takes about half a millisecond, a tick or two of the schedule, so it is
/// taken rarely enough that the submissions it holds up — one in two
/// hundred — stay out of every percentile reported.
const OPEN_SLICE: Duration = Duration::from_millis(100);

/// Attempts at an open-loop schedule before its outcome is reported as
/// it is, flagged off schedule.
const OPEN_ATTEMPTS: usize = 3;

/// Most submissions that may leave more than one interval late for the
/// generator to count as on schedule. Undisturbed runs have 1 to 5 %.
const LATE_SHARE_MAX: f64 = 0.1;

/// Share of submissions that left the generator more than one `interval`
/// after they were due. At two fifths of the system's capacity nothing
/// queues by itself: a submission that late found the connection still
/// busy with an earlier one, because the host stalled or because the rate
/// is above what it sustains — and then a latency counted from the due
/// instant describes the backlog, not the system.
#[must_use]
pub fn late_share(late_ns: &[u64], interval: Duration) -> f64 {
    let late = late_ns
        .iter()
        .filter(|ns| u128::from(**ns) > interval.as_nanos())
        .count();
    late as f64 / late_ns.len().max(1) as f64
}

/// Runs `run` on every item at once, one thread each, joins them all and
/// returns what they returned, in order.
fn side_by_side<I: Send, T: Send>(
    items: impl IntoIterator<Item = I>,
    run: impl Fn(I) -> BenchResult<T> + Sync,
) -> BenchResult<Vec<T>> {
    let run = &run;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| scope.spawn(move || run(item)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("connection thread panicked".into()))
            })
            .collect()
    })
}

/// Closed-loop capacity of an open-loop workload's configuration: every
/// connection submits back to back for `seconds`; returns completed waves
/// per second over all connections. This is the measurement the frozen
/// `rate_wps` is derived from (README, "ramp_open rate").
pub fn closed_capacity(connections: &mut [Served], seconds: f64) -> BenchResult<f64> {
    side_by_side(connections.iter_mut(), |c| c.run_for(seconds))?;
    let waves: usize = connections.iter().map(|c| c.log.wave_ns.len()).sum();
    let wall = connections.iter().map(|c| c.log.wall_s).fold(0.0, f64::max);
    Ok(waves as f64 / wall)
}

/// Runs every connection's open-loop schedule side by side for `seconds`
/// and returns whether the generators kept their schedule. An attempt in
/// which one of them did not (`late_share` above [`LATE_SHARE_MAX`]) is
/// discarded and the schedule run again, [`OPEN_ATTEMPTS`] times at most;
/// the last attempt is kept whatever it was.
pub fn run_open(connections: &mut [Served], seconds: f64) -> BenchResult<bool> {
    let Some(workload) = connections.first().map(|c| c.workload) else {
        return Ok(true);
    };
    debug_assert_eq!(workload.drive, Drive::ServedOpen);
    let interval = Duration::from_secs_f64(1.0 / workload.rate_wps as f64);
    let ticks = ((seconds * workload.rate_wps as f64) as u64).max(workload.audit_waves);
    let mut on_schedule = false;
    for attempt in 1..=OPEN_ATTEMPTS {
        // A common, slightly future origin so both schedules start aligned.
        let start = Instant::now() + Duration::from_millis(5);
        side_by_side(connections.iter_mut(), |c| {
            c.run_schedule(start, interval, ticks)
        })?;
        let worst = connections
            .iter()
            .map(|c| late_share(&c.log.late_ns, interval))
            .fold(0.0, f64::max);
        on_schedule = worst <= LATE_SHARE_MAX;
        if on_schedule {
            break;
        }
        eprintln!(
            "wavebench: {}: attempt {attempt} of {OPEN_ATTEMPTS} off schedule: {:.0} % of a \
             connection's submissions left over an interval late (the host stalled, or {} \
             submissions/s is above what it sustains)",
            workload.name,
            worst * 100.0,
            workload.rate_wps
        );
        if attempt < OPEN_ATTEMPTS {
            for c in connections.iter_mut() {
                c.log.discard_timings();
            }
        }
    }
    for c in connections.iter_mut() {
        c.log.keep_schedule_timeline();
    }
    Ok(on_schedule)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn late_share_counts_submissions_over_an_interval_late() {
        let interval = Duration::from_micros(500);
        assert_eq!(late_share(&[], interval), 0.0);
        let on_time: Vec<u64> = (0..1000).map(|i| 20_000 + (i % 7) * 1_000).collect();
        assert_eq!(late_share(&on_time, interval), 0.0);
        // A stall that holds 80 of 1000 submissions: still on schedule.
        let stalled: Vec<u64> = (0..1000)
            .map(|i| {
                if (300..380).contains(&i) {
                    40_000_000
                } else {
                    20_000
                }
            })
            .collect();
        assert_eq!(late_share(&stalled, interval), 0.08);
        assert!(late_share(&stalled, interval) <= LATE_SHARE_MAX);
        // Above capacity: every submission later than the one before.
        let growing: Vec<u64> = (0..1000).map(|i| i * 100_000).collect();
        assert!(late_share(&growing, interval) > 0.9);
    }
}
