//! One run of one workload: set-ups, the measured phase, the correctness
//! audit, and the metrics computed from them.
//!
//! `--trace 0` measures the end-to-end metrics with telemetry and tracing
//! off. `--trace 1` is the separate pass behind the per-layer metrics
//! (`layers.rs`).

use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::common::{
    peak_rss_mb, sorted_us, trail_checksum, twin_audit, Audit, BenchResult, Context, StoreMark,
};
use crate::inproc::{Inproc, Options, WaveLog};
use crate::json::{obj, Json};
use crate::metrics::{Measured, END_TO_END};
use crate::served;
use crate::stats::{median, median_sorted, tail};
use crate::workloads::{Drive, Workload, NO_CHECKPOINTS};

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Shrinks set-up repetitions to one (the `--quick` gate).
    pub quick: bool,
    /// Scratch directory for durable sessions, inside the checkout.
    pub scratch: PathBuf,
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Measured,
    /// Everything else worth keeping: checksums, exact counts, raw
    /// set-up times — the suite's gate and `result.json` read it.
    pub detail: Json,
}

/// A scratch directory that is removed again, whatever happens.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(parent: &Path, label: &str) -> BenchResult<Self> {
        let dir = parent.join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).context("create scratch directory")?;
        Ok(Self(dir))
    }

    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }

    #[must_use]
    pub fn sub(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What the measured phase leaves behind, whatever drove it.
struct MeasuredPhase {
    setups_s: Vec<f64>,
    log: WaveLog,
    rss_mb: f64,
    /// Decision trail checksum over training plus the audit prefix, one
    /// per session.
    trails: Vec<(u64, u64)>,
    /// Served only.
    recover: Option<(f64, u64)>,
    /// `lrb_served`: the in-process shadow's store at the audit wave.
    shadow_mark: Option<StoreMark>,
    /// Open loop: whether the generators kept their schedule.
    on_schedule: bool,
}

fn setups(args: &RunArgs) -> usize {
    if args.quick {
        1
    } else {
        args.workload.setups
    }
}

fn measure_inproc(args: &RunArgs) -> BenchResult<MeasuredPhase> {
    let w = args.workload;
    let mut setups_s = Vec::new();
    let mut session = None;
    for _ in 0..setups(args) {
        // The previous set-up's session is dropped before the next is
        // built, so peak memory is one session's.
        drop(session.take());
        let (s, secs) = Inproc::setup(w, args.seed, &Options::default())?;
        setups_s.push(secs);
        session = Some(s);
    }
    let mut session = session.ok_or("no set-up ran")?;
    session.run_for(args.seconds)?;
    let rss_mb = peak_rss_mb();
    let last_wave = w.training_waves as u64 + w.audit_waves;
    let trail = session
        .session
        .engine()
        .with(|e| trail_checksum(e.diagnostics(), last_wave));
    let mut log = WaveLog::default();
    log.merge(std::mem::take(&mut session.log));
    Ok(MeasuredPhase {
        setups_s,
        log,
        rss_mb,
        trails: vec![trail],
        recover: None,
        shadow_mark: None,
        on_schedule: true,
    })
}

fn measure_served(args: &RunArgs) -> BenchResult<MeasuredPhase> {
    let w = args.workload;
    let scratch = Scratch::new(&args.scratch, w.name)?;
    let mut setups_s = Vec::new();
    let mut live = None;
    for i in 0..setups(args) {
        if let Some((server, connections, _)) = live.take() {
            drop::<Vec<served::Served>>(connections);
            served::Server::shutdown(server);
        }
        let ready = served::setup(w, args.seed, &scratch.sub(&format!("setup{i}")), None)?;
        setups_s.push(ready.2);
        live = Some(ready);
    }
    let (server, mut connections, _) = live.ok_or("no set-up ran")?;
    let on_schedule = match w.drive {
        Drive::ServedClosed => {
            connections[0].run_for(args.seconds)?;
            true
        }
        Drive::ServedOpen => served::run_open(&mut connections, args.seconds)?,
        Drive::InProcess => unreachable!("measure_served drives served workloads only"),
    };
    let rss_mb = peak_rss_mb();
    let last_wave = w.training_waves as u64 + w.audit_waves;
    let mut log = WaveLog::default();
    let mut trails = Vec::new();
    for c in &mut connections {
        if w.drive == Drive::ServedOpen {
            // After the schedule, so the full-store read never sits in
            // front of a due submission.
            c.mark_now()?;
        }
        trails.push(trail_checksum(&c.trail()?, last_wave));
        log.merge(std::mem::take(&mut c.log));
    }
    let last_run_wave = w.training_waves as u64 + connections[0].app_waves();
    drop(connections);
    let recover = if w.checkpoint_interval == NO_CHECKPOINTS {
        // Nothing to resume from; an orderly stop is all there is to do.
        server.shutdown();
        None
    } else {
        let recover = server.kill_and_recover(w, args.seed, None)?;
        // A crash loses what came after the last periodic checkpoint; the
        // session must resume right behind it.
        let expected = last_run_wave / w.checkpoint_interval * w.checkpoint_interval + 1;
        if recover.1 != expected {
            return Err(format!(
                "recovery resumed at wave {} but the last checkpoint before wave {last_run_wave} puts it at {expected}",
                recover.1
            ));
        }
        Some(recover)
    };

    // `lrb_served` must leave exactly the store an in-process session
    // fed the same writes leaves: every byte, and the clock.
    let shadow_mark = if w.drive == Drive::ServedClosed {
        let options = Options {
            side: true,
            ..Options::default()
        };
        let (mut shadow, _) = Inproc::setup(w, args.seed, &options)?;
        while shadow.app_waves() < w.audit_waves {
            shadow.wave()?;
        }
        shadow.log.mark
    } else {
        None
    };
    Ok(MeasuredPhase {
        setups_s,
        log,
        rss_mb,
        trails,
        recover,
        shadow_mark,
        on_schedule,
    })
}

/// Checks the run against the twin audit and the shadow; returns what
/// failed, in words.
fn verdicts(w: &Workload, phase: &MeasuredPhase, audit: &Audit) -> Vec<String> {
    let mut wrong = Vec::new();
    let sessions = phase.trails.len() as u64;
    if phase.log.failed != 0 {
        wrong.push(format!(
            "{} of {} requests failed",
            phase.log.failed, phase.log.attempted
        ));
    }
    for (i, trail) in phase.trails.iter().enumerate() {
        if *trail != audit.trail {
            wrong.push(format!(
                "session {i}: decision trail {trail:?} differs from the twin run's {:?}",
                audit.trail
            ));
        }
    }
    let expected = (
        audit.saved.executed * sessions,
        audit.saved.skipped * sessions,
    );
    if (phase.log.saved.executed, phase.log.saved.skipped) != expected {
        wrong.push(format!(
            "managed executions/skips {:?} differ from the twin run's {expected:?}",
            (phase.log.saved.executed, phase.log.saved.skipped)
        ));
    }
    if audit.audited_waves != w.audit_waves {
        wrong.push(format!(
            "twin run audited {} waves, not {}",
            audit.audited_waves, w.audit_waves
        ));
    }
    match (phase.log.mark, phase.shadow_mark) {
        (None, _) => wrong.push("no store mark was taken at the audit wave".into()),
        (Some(mark), Some(shadow)) if mark != shadow => wrong.push(format!(
            "served store {mark:?} differs from the in-process shadow's {shadow:?}"
        )),
        _ => {}
    }
    wrong
}

/// `--trace 0`: the end-to-end metrics of one run.
pub fn run_end_to_end(args: &RunArgs) -> BenchResult<RunReport> {
    let w = args.workload;
    let phase = if w.served() {
        measure_served(args)?
    } else {
        measure_inproc(args)?
    };
    let audit = twin_audit(w, args.seed, w.audit_waves)?;
    let wrong = verdicts(w, &phase, &audit);
    for problem in &wrong {
        eprintln!("wavebench: {}: INCORRECT: {problem}", w.name);
    }

    let waves = sorted_us(&phase.log.wave_ns);
    let ref_waves = crate::stats::sorted(&phase.log.ref_wave_ns);
    let queries = sorted_us(&phase.log.query_ns);
    let (p_tail, tail_q) = tail(&waves, 0.99);
    let n = waves.len() as u64;
    let mut m = Measured::default();
    let (rate, blocks) = phase.log.waves_per_s();
    m.put("waves_per_s", rate, blocks);
    m.put("wave_p50_us", median_sorted(&ref_waves) / 1e3, n);
    m.put(
        "setup_s",
        median(&phase.setups_s),
        phase.setups_s.len() as u64,
    );
    m.put(
        "saved_ratio",
        phase.log.saved.ratio(),
        phase.log.saved.executed + phase.log.saved.skipped,
    );

    let mark = phase.log.mark.unwrap_or_default();
    let late = sorted_us(&phase.log.late_ns);
    let open_loop = |value: f64| -> Json {
        if late.is_empty() {
            Json::Null
        } else {
            value.into()
        }
    };
    let interval = Duration::from_secs_f64(1.0 / w.rate_wps.max(1) as f64);
    let late_share = served::late_share(&phase.log.late_ns, interval);
    let detail = obj([
        ("workload", w.name.into()),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("correct", wrong.is_empty().into()),
        ("problems", wrong.clone().into()),
        ("attempted", phase.log.attempted.into()),
        ("failed", phase.log.failed.into()),
        ("metrics", m.detail(&END_TO_END)),
        ("setups_s", phase.setups_s.clone().into()),
        ("application_waves", n.into()),
        (
            "waves_over_wall_per_s",
            (n as f64 / phase.log.wall_s).into(),
        ),
        // What the clock read, before it was taken to reference speed,
        // and the host's slowdown over the measured phase.
        ("raw_wave_p50_us", median_sorted(&waves).into()),
        ("host_slowdown", median(&phase.log.slowdowns).into()),
        ("host_samples", phase.log.slowdowns.len().into()),
        // Demoted to the per-layer pass; kept here for the curious.
        ("bound_confidence", audit.bound_confidence.into()),
        ("peak_rss_mb", phase.rss_mb.into()),
        ("query_p50_us", median_sorted(&queries).into()),
        ("wave_tail_us", p_tail.into()),
        ("wave_tail_percentile", tail_q.into()),
        (
            "exact",
            obj([
                ("managed_executed", phase.log.saved.executed.into()),
                ("managed_skipped", phase.log.saved.skipped.into()),
                ("steps_executed", phase.log.steps_executed.into()),
                ("steps_skipped", phase.log.steps_skipped.into()),
                ("audited_waves", audit.audited_waves.into()),
                ("violations", audit.violations.into()),
                // Checksums as strings: a u64 does not survive an f64.
                ("trail", format!("{:016x}", phase.trails[0].0).into()),
                ("trail_rows", phase.trails[0].1.into()),
                ("store_state", format!("{:016x}", mark.state).into()),
                ("store_values", format!("{:016x}", mark.values).into()),
                ("store_clock", mark.clock.into()),
                ("store_cells", mark.cells.into()),
            ]),
        ),
        (
            "recover_s",
            phase.recover.map_or(Json::Null, |(s, _)| s.into()),
        ),
        // Open loop: whether the generators kept their schedule, the share
        // of submissions that left over an interval late, and how late.
        ("on_schedule", phase.on_schedule.into()),
        ("gen_late_share", open_loop(late_share)),
        ("gen_late_p50_us", open_loop(median_sorted(&late))),
        ("gen_late_p99_us", open_loop(tail(&late, 0.99).0)),
    ]);
    Ok(RunReport {
        correct: wrong.is_empty(),
        attempted: phase.log.attempted,
        failed: phase.log.failed,
        metrics: m,
        detail,
    })
}
