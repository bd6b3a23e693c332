//! Kill-at-wave-k crash-recovery determinism over the LRB workload.
//!
//! The durability acceptance test from the paper-reproduction roadmap: a
//! 200-wave Linear Road run interrupted at an arbitrary wave and recovered
//! via [`SmartFluxSession::recover`] must produce wave decisions and final
//! store contents identical to the uninterrupted run.

#![allow(deprecated)] // `recover_store` over a session's directory, as the benchmark probes it

use std::path::PathBuf;

use smartflux::eval::WorkloadFactory;
use smartflux::telemetry_names::CHECKPOINTS;
use smartflux::{
    recover_store, CoreError, DurabilityError, DurabilityOptions, EngineConfig, SmartFluxSession,
    WaveDiagnostics,
};
use smartflux_datastore::DataStore;
use smartflux_workloads::lrb::LrbFactory;

const TOTAL_WAVES: u64 = 200;
const CHECKPOINT_INTERVAL: u64 = 20;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "smartflux-lrb-recovery-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &PathBuf) -> EngineConfig {
    EngineConfig::new()
        .with_training_waves(30)
        .with_quality_gates(0.3, 0.3)
        .with_seed(11)
        .with_durability(DurabilityOptions::new(dir).with_checkpoint_interval(CHECKPOINT_INTERVAL))
}

fn fresh_session(dir: &PathBuf) -> SmartFluxSession {
    let store = DataStore::new();
    let workflow = LrbFactory::with_bound(0.1).build(&store);
    SmartFluxSession::new(workflow, store, config(dir)).expect("session builds")
}

fn run_waves(session: &mut SmartFluxSession, count: u64) {
    for _ in 0..count {
        session.run_wave().expect("wave runs");
    }
}

/// Runs the full uninterrupted reference and returns its per-wave
/// diagnostics plus the final store state and clock.
fn reference_run(dir: &PathBuf) -> (Vec<WaveDiagnostics>, smartflux_datastore::StoreState, u64) {
    let mut session = fresh_session(dir);
    run_waves(&mut session, TOTAL_WAVES);
    let diags = session.diagnostics().iter().cloned().collect();
    let store = session.scheduler().store().clone();
    drop(session);
    (diags, store.export_state(), store.clock())
}

#[test]
fn kill_at_wave_k_recovery_is_deterministic() {
    let ref_dir = tmp_dir("ref");
    let (ref_diags, ref_state, ref_clock) = reference_run(&ref_dir);
    assert_eq!(ref_diags.len() as u64, TOTAL_WAVES);

    // Kill points straddle the phases: mid-training (37), early
    // application (95) and deep application (160). None is a checkpoint
    // multiple, so recovery always rewinds to an earlier wave and must
    // re-derive the in-between decisions identically.
    for kill_wave in [37_u64, 95, 160] {
        let dir = tmp_dir(&format!("kill{kill_wave}"));

        // The doomed run: `drop` without any orderly checkpoint stands in
        // for the crash — everything after the last checkpoint interval is
        // lost, and recovery re-executes it deterministically.
        let checkpoint_wave = kill_wave - kill_wave % CHECKPOINT_INTERVAL;
        let mut doomed = fresh_session(&dir);
        run_waves(&mut doomed, checkpoint_wave);
        let state_at_checkpoint = doomed.scheduler().store().export_state();
        run_waves(&mut doomed, kill_wave - checkpoint_wave);
        drop(doomed);

        // The session logs no store mutation, so the store-level path
        // the benchmark times finds the checkpoint and nothing after it.
        let recovered = recover_store(&dir).expect("store recovery succeeds");
        assert_eq!(
            recovered.store.export_state(),
            state_at_checkpoint,
            "store recovery missed the last checkpoint before wave {kill_wave}"
        );
        assert_eq!(recovered.store.clock(), state_at_checkpoint.clock);
        assert_eq!(recovered.checkpoint_wave, checkpoint_wave);
        assert_eq!(recovered.last_wave, checkpoint_wave);
        assert!(!recovered.torn_tail, "a missing log read as torn");

        // The engine-level path: resume from the checkpoint and replay the
        // remaining waves of the schedule.
        let throwaway = DataStore::new();
        let workflow = LrbFactory::with_bound(0.1).build(&throwaway);
        let mut resumed =
            SmartFluxSession::recover(workflow, config(&dir)).expect("session recovery succeeds");
        let resume_wave = resumed.scheduler().next_wave();
        assert_eq!(
            resume_wave,
            checkpoint_wave + 1,
            "recovery must resume right after the last checkpoint"
        );
        run_waves(&mut resumed, TOTAL_WAVES - checkpoint_wave);

        // Every wave decision made after recovery matches the
        // uninterrupted run wave for wave.
        let resumed_diags = resumed.diagnostics();
        assert_eq!(
            resumed_diags.len() as u64,
            TOTAL_WAVES - checkpoint_wave,
            "one diagnostics entry per re-executed wave"
        );
        for d in &resumed_diags {
            let reference = ref_diags
                .iter()
                .find(|r| r.wave == d.wave)
                .expect("reference has every wave");
            assert_eq!(
                d, reference,
                "wave {} diverged after kill at {kill_wave}",
                d.wave
            );
        }

        // And the stores converge bit for bit, clock included.
        let store = resumed.scheduler().store().clone();
        drop(resumed);
        assert_eq!(
            store.export_state(),
            ref_state,
            "final store diverged after kill at {kill_wave}"
        );
        assert_eq!(store.clock(), ref_clock);

        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
}

#[test]
fn a_durable_session_writes_checkpoints_and_no_log() {
    let waves = 3 * CHECKPOINT_INTERVAL + 7;
    let run = |durable: Option<&PathBuf>| {
        let store = DataStore::new();
        let workflow = LrbFactory::with_bound(0.1).build(&store);
        let config = match durable {
            Some(dir) => config(dir),
            None => EngineConfig::new()
                .with_training_waves(30)
                .with_quality_gates(0.3, 0.3)
                .with_seed(11),
        };
        let mut session = SmartFluxSession::new(workflow, store, config.with_telemetry(true))
            .expect("session builds");
        run_waves(&mut session, waves);
        let store = session.scheduler().store().clone();
        (
            session.diagnostics(),
            store.export_state(),
            store.clock(),
            session.telemetry().snapshot(),
        )
    };

    let dir = tmp_dir("nolog");
    let (diags, state, clock, snapshot) = run(Some(&dir));
    let (plain_diags, plain_state, plain_clock, _) = run(None);
    assert_eq!(diags, plain_diags, "durability changed a decision");
    assert_eq!(state, plain_state, "durability changed the store");
    assert_eq!(clock, plain_clock);

    assert_eq!(snapshot.counter(CHECKPOINTS), 3);
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("the session created its directory")
        .map(|entry| entry.expect("readable entry").file_name())
        .collect();
    files.sort();
    assert_eq!(
        files,
        ["checkpoint.ckpt", "checkpoint.ckpt.tmp"],
        "a session wrote beside its checkpoint and its spare"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recover_without_checkpoint_is_a_typed_error() {
    let dir = tmp_dir("nocheckpoint");
    // A run shorter than one checkpoint interval leaves nothing to resume.
    let mut session = fresh_session(&dir);
    run_waves(&mut session, CHECKPOINT_INTERVAL / 2);
    drop(session);

    let throwaway = DataStore::new();
    let workflow = LrbFactory::with_bound(0.1).build(&throwaway);
    let err = SmartFluxSession::recover(workflow, config(&dir)).expect_err("no checkpoint yet");
    assert!(
        matches!(err, CoreError::Durability(DurabilityError::NoCheckpoint(_))),
        "unexpected error: {err}"
    );

    // Without durability configured at all, recovery is refused up front.
    let throwaway = DataStore::new();
    let workflow = LrbFactory::with_bound(0.1).build(&throwaway);
    let plain = EngineConfig::new().with_seed(11);
    let err = SmartFluxSession::recover(workflow, plain).expect_err("not configured");
    assert!(matches!(
        err,
        CoreError::Durability(DurabilityError::NotConfigured)
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_bumps_the_telemetry_counter() {
    let dir = tmp_dir("telemetry");
    let mut session = fresh_session(&dir);
    run_waves(&mut session, CHECKPOINT_INTERVAL + 3);
    drop(session);

    let throwaway = DataStore::new();
    let workflow = LrbFactory::with_bound(0.1).build(&throwaway);
    let recovered = SmartFluxSession::recover(workflow, config(&dir).with_telemetry(true))
        .expect("recovery succeeds");
    let snapshot = recovered.telemetry().snapshot();
    assert_eq!(snapshot.counter(smartflux::telemetry_names::RECOVERIES), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
