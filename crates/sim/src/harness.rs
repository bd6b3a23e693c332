//! Run drivers: executing one [`Scenario`] through the real stack.
//!
//! Three drivers share one artifact shape so the oracles can compare
//! them pairwise:
//!
//! - [`run_scenario`] — in-process, honouring the scenario's full plan
//!   (checkpointing *and* crash kills).
//! - [`run_uninterrupted`] — in-process with checkpointing but no kills,
//!   the reference side of the crash-equivalence oracle.
//! - [`run_over_wire`] — the same scenario through a loopback
//!   [`NetServer`], including scripted frame damage; the wire side of
//!   the wire-equivalence oracle.
//!
//! A "crash" is literal: the session is dropped mid-run without
//! shutdown, exactly like the recovery test suites do, and recovery
//! rebuilds the workflow on a throwaway store before standing the next
//! session up from the checkpoint. Artifacts carry *observations from
//! every session segment* (including waves later replayed), so the
//! oracles can check replayed waves against the reference as well.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use smartflux::{CoreError, SmartFluxSession, WaveDiagnostics};
use smartflux_datastore::{DataStore, StoreState};
use smartflux_durability::DurabilityOptions;
use smartflux_net::wire::{self, FrameIn};
use smartflux_net::{
    Client, DecisionRow, EngineHost, ErrorCode, HostConfig, NetError, NetServer, Request, Response,
    SessionSpec, WorkflowRegistry, VERSION,
};
use smartflux_telemetry::{names, MemoryJournal, MemoryTraceSink, SpanEvent, Telemetry};
use smartflux_wms::{Scheduler, WmsError};

use crate::error::SimError;
use crate::faults::wire as wire_faults;
use crate::scenario::Scenario;
use crate::workload;

/// Counters that must be bit-identical across same-mode runs of one
/// scenario. Latency histograms and byte counters are excluded (they
/// measure wall time and encoding sizes, not decisions).
pub const DETERMINISTIC_COUNTERS: &[&str] = &[
    names::STEPS_EXECUTED,
    names::STEPS_SKIPPED,
    names::STEPS_DEFERRED,
    names::STEP_RETRIES,
    names::STEPS_FAILED,
    names::WAVES_ABORTED,
    names::SDF_FALLBACKS,
    names::STORE_WRITES,
];

/// Everything one in-process run produced that an oracle may inspect.
#[derive(Debug, Clone)]
pub struct RunArtifacts {
    /// Decision rows (`diagnostics()`) from every session segment, in
    /// observation order. Waves replayed after a crash appear once per
    /// segment that executed them.
    pub decisions: Vec<WaveDiagnostics>,
    /// Full store image at the end of the run.
    pub store: StoreState,
    /// Store logical clock at the end of the run.
    pub clock: u64,
    /// Waves that aborted (scripted faults exhausting the retry budget):
    /// the wave of each `StepFailed` error, in order.
    pub aborted_waves: Vec<u64>,
    /// The rows each segment's journal sink received, concatenated.
    pub journal: Vec<WaveDiagnostics>,
    /// Completed trace spans from every segment.
    pub spans: Vec<SpanEvent>,
    /// [`DETERMINISTIC_COUNTERS`] summed across segments.
    pub counters: BTreeMap<String, u64>,
    /// What each session segment ran, in order (1 + number of crash
    /// kills).
    pub segments: Vec<Segment>,
}

/// What one session segment ran, as the harness and the segment's
/// scheduler recorded it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// The wave of every `run_wave` call, in order: the completed
    /// outcome's wave or the `StepFailed` error's.
    pub waves: Vec<u64>,
    /// [`ExecutionStats::waves`](smartflux_wms::ExecutionStats::waves):
    /// the waves that completed.
    pub completed: u64,
    /// The segment's [`ExecutionStats`](smartflux_wms::ExecutionStats)
    /// summed over the steps, under the name of the `wms.*` counter each
    /// must equal.
    pub stats: BTreeMap<&'static str, u64>,
}

impl Segment {
    fn new(waves: Vec<u64>, scheduler: &Scheduler) -> Self {
        let stats = scheduler.stats();
        let mut totals = BTreeMap::from([(names::WAVES_ABORTED, stats.waves_aborted())]);
        for step in scheduler.workflow().graph().step_ids() {
            for (name, n) in [
                (names::STEPS_EXECUTED, stats.executions(step)),
                (names::STEPS_SKIPPED, stats.skips(step)),
                (names::STEPS_DEFERRED, stats.deferrals(step)),
                (names::STEP_RETRIES, stats.retries(step)),
                (names::STEPS_FAILED, stats.failures(step)),
            ] {
                *totals.entry(name).or_insert(0) += n;
            }
        }
        Self {
            waves,
            completed: stats.waves(),
            stats: totals,
        }
    }
}

/// What one scenario run through the wire plane produced.
#[derive(Debug, Clone)]
pub struct WireArtifacts {
    /// Decision rows queried back from the server.
    pub decisions: Vec<DecisionRow>,
    /// Full store image queried at the end of the run.
    pub store: StoreState,
    /// Store logical clock at the end of the run.
    pub clock: u64,
    /// Waves whose submission came back as a typed session failure.
    pub aborted_waves: Vec<u64>,
    /// Damaged frames that earned a typed error or clean close (must
    /// equal the number injected).
    pub damage_rejections: u32,
    /// Damaged frames injected.
    pub damage_injected: u32,
}

/// Outcome of the racing close-vs-submit exercise.
#[derive(Debug, Clone, Default)]
pub struct RaceReport {
    /// Race rounds driven.
    pub rounds: u32,
    /// One line per protocol violation (a submit stranded or answered as
    /// if the host were shutting down while it was alive).
    pub violations: Vec<String>,
}

fn config_for(scenario: &Scenario, durability_dir: Option<&Path>) -> smartflux::EngineConfig {
    let mut config = workload::engine_config(scenario);
    if let (Some(dir), Some(plan)) = (durability_dir, &scenario.durability) {
        config = config.with_durability(
            DurabilityOptions::new(dir).with_checkpoint_interval(plan.checkpoint_interval),
        );
    }
    config
}

/// The wave number a wave-level workflow failure belongs to.
fn aborted_wave(error: &WmsError) -> Option<u64> {
    match error {
        WmsError::StepFailed { wave, .. } => Some(*wave),
        WmsError::UnboundStep(_) => None,
    }
}

/// Per-segment capture: sinks attached to one session's telemetry.
struct Capture {
    journal: Arc<MemoryJournal>,
    spans: Arc<MemoryTraceSink>,
}

fn attach_capture(session: &SmartFluxSession) -> Capture {
    let journal = Arc::new(MemoryJournal::new());
    let spans = Arc::new(MemoryTraceSink::new());
    session.telemetry().add_journal_sink(journal.clone());
    session.telemetry().set_trace_sink(Some(spans.clone()));
    Capture { journal, spans }
}

/// Drives `session` until `next_wave` passes `until` (inclusive),
/// recording every wave it ran, and the aborted ones.
fn drive(
    session: &mut SmartFluxSession,
    until: u64,
    aborted: &mut Vec<u64>,
) -> Result<Vec<u64>, SimError> {
    let mut waves = Vec::new();
    while session.scheduler().next_wave() <= until {
        match session.run_wave() {
            Ok(outcome) => waves.push(outcome.wave),
            Err(CoreError::Workflow(e)) => match aborted_wave(&e) {
                Some(wave) => {
                    waves.push(wave);
                    aborted.push(wave);
                }
                None => return Err(SimError::Wms(e)),
            },
            Err(other) => return Err(other.into()),
        }
    }
    Ok(waves)
}

/// Collects one segment's observations into the accumulating artifacts.
fn collect_segment(
    session: &SmartFluxSession,
    capture: &Capture,
    waves: Vec<u64>,
    artifacts: &mut RunArtifacts,
) {
    artifacts
        .decisions
        .extend(session.diagnostics().iter().cloned());
    artifacts.journal.extend(capture.journal.rows());
    artifacts.spans.extend(capture.spans.events());
    let snapshot = session.telemetry().snapshot();
    for &name in DETERMINISTIC_COUNTERS {
        // tidy:allow(telemetry-guard): reads a frozen snapshot for the
        // oracles, not a hot-path registry emit.
        *artifacts.counters.entry(name.to_string()).or_insert(0) += snapshot.counter(name);
    }
    artifacts
        .segments
        .push(Segment::new(waves, session.scheduler()));
}

fn empty_artifacts() -> RunArtifacts {
    RunArtifacts {
        decisions: Vec::new(),
        store: DataStore::new().export_state(),
        clock: 0,
        aborted_waves: Vec::new(),
        journal: Vec::new(),
        spans: Vec::new(),
        counters: BTreeMap::new(),
        segments: Vec::new(),
    }
}

/// Prepares a fresh durability directory for one tagged run.
///
/// # Errors
///
/// Fails on filesystem errors creating or clearing the directory.
pub fn fresh_dir(workdir: &Path, tag: &str) -> Result<std::path::PathBuf, SimError> {
    let dir = workdir.join(tag);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn run_in_process(
    scenario: &Scenario,
    workdir: &Path,
    tag: &str,
    honour_kills: bool,
) -> Result<RunArtifacts, SimError> {
    scenario.validate()?;
    let durable = scenario.durability.is_some();
    let dir = if durable {
        Some(fresh_dir(workdir, tag)?)
    } else {
        None
    };
    let config = config_for(scenario, dir.as_deref());

    let kills: Vec<u64> = if honour_kills {
        scenario
            .durability
            .as_ref()
            .map(|p| p.kills.clone())
            .unwrap_or_default()
    } else {
        Vec::new()
    };
    // Segment boundaries: run to each kill wave, crash, recover, and
    // finish the tail. `next_wave` advances before a wave executes, so
    // an aborted wave still counts toward the boundary.
    let mut boundaries = kills;
    boundaries.push(scenario.waves);

    let mut artifacts = empty_artifacts();

    let store = DataStore::new();
    let workflow = workload::build_workflow(scenario, &store)?;
    let mut session = SmartFluxSession::new(workflow, store, config.clone())?;

    let last = boundaries.len() - 1;
    for (i, &until) in boundaries.iter().enumerate() {
        let capture = attach_capture(&session);
        let waves = drive(&mut session, until, &mut artifacts.aborted_waves)?;
        collect_segment(&session, &capture, waves, &mut artifacts);
        if i == last {
            artifacts.clock = session.scheduler().store().clock();
            artifacts.store = session.scheduler().store().export_state();
        } else {
            // Crash: drop without shutdown or checkpoint, then stand a
            // new session up from the last periodic checkpoint. The
            // workflow is rebuilt on a throwaway store (recovery
            // restores the real one from the checkpoint).
            drop(session);
            let throwaway = DataStore::new();
            let workflow = workload::build_workflow(scenario, &throwaway)?;
            session = SmartFluxSession::recover(workflow, config.clone())?;
        }
    }
    Ok(artifacts)
}

/// Runs the scenario in-process, honouring its full plan including
/// crash kills.
///
/// `workdir/tag` holds the run's durability directory (cleared first);
/// scenarios without a durability plan never touch the filesystem.
///
/// # Errors
///
/// Fails on invalid scenarios and infrastructure errors — never on
/// scripted faults, which are data ([`RunArtifacts::aborted_waves`]).
pub fn run_scenario(
    scenario: &Scenario,
    workdir: &Path,
    tag: &str,
) -> Result<RunArtifacts, SimError> {
    run_in_process(scenario, workdir, tag, true)
}

/// Runs the scenario in-process with checkpointing but **no** kills: the
/// reference execution for the crash-equivalence oracle.
///
/// # Errors
///
/// Same failure modes as [`run_scenario`].
pub fn run_uninterrupted(
    scenario: &Scenario,
    workdir: &Path,
    tag: &str,
) -> Result<RunArtifacts, SimError> {
    run_in_process(scenario, workdir, tag, false)
}

/// Workload name generated scenarios register under on loopback hosts.
pub const WIRE_WORKLOAD: &str = "sim";

/// Salt separating the frame-damage RNG stream from workload streams.
const DAMAGE_SALT: u64 = 0xF00D_FACE_CAFE_0001;

fn loopback_server(scenario: &Scenario) -> Result<NetServer, SimError> {
    let mut registry = WorkflowRegistry::new();
    workload::register_workload(&mut registry, WIRE_WORKLOAD, scenario)?;
    let host = EngineHost::new(registry, HostConfig::new(), Telemetry::enabled());
    Ok(NetServer::start("127.0.0.1:0", host, 4)?)
}

fn encode_frame(request: &Request) -> Result<Vec<u8>, SimError> {
    let mut out = Vec::new();
    wire::write_frame_to(&mut out, &wire::encode_request(request))?;
    Ok(out)
}

/// Throws one damaged frame at the server on a fresh connection.
///
/// Returns `true` when the server answered with a typed error or a
/// clean close/reset — anything except a non-error response. The frame
/// is a submit against a session id that does not exist, so even a
/// mutation that leaves the frame structurally valid (duplicate,
/// boundary swap) cannot reach real session state.
fn inject_damaged_frame(server: &NetServer, damaged: &[u8]) -> Result<bool, SimError> {
    let mut stream = TcpStream::connect(server.addr())?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(&encode_frame(&Request::Hello { version: VERSION })?)?;
    match wire::read_frame_from(&mut stream) {
        Ok(FrameIn::Frame(_)) => {}
        other => {
            return Err(SimError::Invalid(format!(
                "loopback handshake failed: {other:?}"
            )))
        }
    }
    // Best-effort write: the server may reject and hang up before the
    // whole damaged stream lands, which is a rejection too.
    if stream.write_all(damaged).is_err() {
        return Ok(true);
    }
    let _ = stream.shutdown(Shutdown::Write);
    match wire::read_frame_from(&mut stream) {
        Ok(FrameIn::Frame(payload)) => match wire::decode_response(&payload) {
            Ok(Response::Error { .. }) => Ok(true),
            Ok(_) | Err(_) => Ok(false),
        },
        Ok(FrameIn::Closed) | Err(_) => Ok(true),
        Ok(FrameIn::Idle) => Ok(false),
    }
}

/// Runs the scenario through a loopback [`NetServer`], injecting the
/// scenario's scripted frame damage after the waves complete.
///
/// # Errors
///
/// Fails on invalid scenarios and infrastructure (socket/protocol)
/// errors. A wave the server reports as failed is data, not an error.
pub fn run_over_wire(scenario: &Scenario) -> Result<WireArtifacts, SimError> {
    scenario.validate()?;
    let server = loopback_server(scenario)?;
    let result = drive_wire(scenario, &server);
    server.shutdown();
    result
}

fn drive_wire(scenario: &Scenario, server: &NetServer) -> Result<WireArtifacts, SimError> {
    let mut client = Client::connect(server.addr())?;
    let opened = client.open_session(&SessionSpec {
        workload: WIRE_WORKLOAD.into(),
        ..SessionSpec::default()
    })?;
    let session = opened.session;

    let mut aborted_waves = Vec::new();
    for wave in 1..=scenario.waves {
        match client.submit_wave(session, vec![]) {
            Ok(_) => {}
            // A scripted abort surfaces as a typed session failure; the
            // session and connection survive and the wave still counts.
            Err(NetError::Remote { .. }) => aborted_waves.push(wave),
            Err(other) => return Err(other.into()),
        }
    }

    let mut damage_injected = 0;
    let mut damage_rejections = 0;
    if let Some(plan) = &scenario.net {
        if plan.damage_frames > 0 {
            let good = encode_frame(&Request::SubmitWave {
                session: u64::MAX,
                writes: vec![],
                run_wave: true,
            })?;
            let faults = wire_faults::seeded(
                scenario.seed ^ DAMAGE_SALT,
                good.len(),
                plan.damage_frames as usize,
            );
            for fault in &faults {
                damage_injected += 1;
                if inject_damaged_frame(server, &fault.apply(&good))? {
                    damage_rejections += 1;
                }
            }
        }
    }

    let decisions = client.query_decisions(session, 0)?;
    let (clock, store) = client.query_store(session)?;
    client.close_session(session)?;

    Ok(WireArtifacts {
        decisions,
        store,
        clock,
        aborted_waves,
        damage_rejections,
        damage_injected,
    })
}

/// Races a submit against a close on a direct [`EngineHost`], once per
/// round with a widening stagger, and reports protocol violations.
///
/// The contract under test: a submit racing a close must either run
/// (the submit won — a scripted wave abort surfacing as a typed
/// `SessionFailed` counts) or be answered with a typed `UnknownSession`
/// error — never stranded without an answer, and never told the *host*
/// is shutting down while it is alive.
///
/// # Errors
///
/// Fails only on invalid scenarios or a session that cannot be opened.
pub fn exercise_close_race(scenario: &Scenario, rounds: u32) -> Result<RaceReport, SimError> {
    scenario.validate()?;
    let mut registry = WorkflowRegistry::new();
    workload::register_workload(&mut registry, WIRE_WORKLOAD, scenario)?;
    let host = EngineHost::new(registry, HostConfig::new(), Telemetry::disabled());
    let mut report = RaceReport::default();
    for round in 0..rounds {
        report.rounds += 1;
        let spec = SessionSpec {
            workload: WIRE_WORKLOAD.into(),
            ..SessionSpec::default()
        };
        let session = match host.open_session(&spec) {
            Response::SessionOpened { session, .. } => session,
            other => {
                return Err(SimError::Invalid(format!(
                    "race round {round}: open failed: {other:?}"
                )))
            }
        };
        // Warm the session so the racing submit is not the first wave.
        let _ = host.submit(session, vec![], true);

        let racer = host.clone();
        let (done_tx, done_rx) = crossbeam::channel::unbounded();
        std::thread::spawn(move || {
            let response = racer.submit(session, vec![], true);
            let _ = done_tx.send(response);
        });
        // Stagger grows per round so both orders (submit wins / close
        // wins) get exercised across the sweep.
        std::thread::sleep(Duration::from_micros(200 + u64::from(round) * 200));
        let _ = host.close(session);

        match done_rx.recv_timeout(Duration::from_secs(2)) {
            Ok(Response::WaveResult(_)) => {}
            Ok(Response::Error {
                code: ErrorCode::UnknownSession,
                ..
            }) => {}
            // The submit won the race and its wave aborted on a scripted
            // step fault — a typed per-wave failure, not a race defect.
            Ok(Response::Error {
                code: ErrorCode::SessionFailed,
                ..
            }) => {}
            Ok(Response::Error { code, message }) => {
                report.violations.push(format!(
                    "round {round}: submit racing close answered {code:?} ({message}) while the host was alive"
                ));
            }
            Ok(other) => {
                report
                    .violations
                    .push(format!("round {round}: unexpected response {other:?}"));
            }
            Err(_) => {
                report.violations.push(format!(
                    "round {round}: submit racing close stranded without an answer"
                ));
                // The racing thread is wedged inside the host, waiting
                // for a session mutex that may never be released, and a
                // kill from this thread takes every mapped session under
                // that same mutex. Abandon the wedged host on a detached
                // reaper instead — the harness must outlive the system
                // under test. (On a healthy host that was merely slow,
                // the reaper's kill completes normally.)
                let wedged = host.clone();
                std::thread::spawn(move || wedged.kill());
                return Ok(report);
            }
        }
    }
    host.shutdown();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workdir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sfsim-harness-{}-{tag}", std::process::id()))
    }

    /// Picks a small seed whose scenario has no plans at all, so the
    /// plain-run test stays fast.
    fn plain_scenario() -> Scenario {
        (0..200u64)
            .map(Scenario::generate)
            .find(|s| s.durability.is_none() && s.net.is_none() && s.faults.is_empty())
            .expect("some small seed generates a plain scenario")
    }

    #[test]
    fn plain_run_produces_consistent_artifacts() {
        let scenario = plain_scenario();
        let dir = workdir("plain");
        let run = run_scenario(&scenario, &dir, "a").unwrap();
        assert_eq!(run.segments.len(), 1);
        assert_eq!(
            run.segments[0].waves,
            (1..=scenario.waves).collect::<Vec<_>>()
        );
        assert_eq!(run.segments[0].completed, scenario.waves);
        assert_eq!(run.decisions.len() as u64, scenario.waves);
        assert!(run.aborted_waves.is_empty());
        assert_eq!(run.clock, run.counters[names::STORE_WRITES]);
        assert!(!run.journal.is_empty());
        assert!(!run.spans.is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn crash_run_replays_and_recovers() {
        let scenario = (0..500u64)
            .map(Scenario::generate)
            .find(|s| s.durability.as_ref().is_some_and(|d| !d.kills.is_empty()))
            .expect("some small seed generates a crash scenario");
        let dir = workdir("crash");
        let kills = scenario.durability.as_ref().unwrap().kills.len();
        let run = run_scenario(&scenario, &dir, "a").unwrap();
        assert_eq!(run.segments.len(), kills + 1);
        // Every wave observed at least once, last wave present.
        let last = run.decisions.iter().map(|d| d.wave).max().unwrap();
        assert_eq!(last, scenario.waves);
        let reference = run_uninterrupted(&scenario, &dir, "ref").unwrap();
        assert_eq!(reference.segments.len(), 1);
        assert_eq!(run.clock, reference.clock);
        assert_eq!(run.store, reference.store);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn wire_run_matches_wave_count() {
        let scenario = plain_scenario();
        let run = run_over_wire(&scenario).unwrap();
        assert_eq!(run.decisions.len() as u64, scenario.waves);
        assert!(run.aborted_waves.is_empty());
        assert!(run.clock > 0);
    }

    #[test]
    fn close_race_rounds_complete_cleanly() {
        let scenario = plain_scenario();
        let report = exercise_close_race(&scenario, 6).unwrap();
        assert_eq!(report.rounds, 6);
        assert!(
            report.violations.is_empty(),
            "close/submit race violated the protocol: {:?}",
            report.violations
        );
    }
}
