//! Durable networked sessions survive both kinds of host death.
//!
//! A crash ([`NetServer::kill`]) mid-submission must never hang or panic
//! a client, and a fresh host over the same durability root must resume
//! the session from its last checkpoint and finish the 200-wave Linear
//! Road run with decisions, store state, and logical clock identical to
//! the uninterrupted in-process reference. An orderly
//! [`NetServer::shutdown`] is stronger: it checkpoints at the exact wave,
//! so the resumed session loses nothing.

use std::path::PathBuf;
use std::time::Duration;

use smartflux::eval::WorkloadFactory;
use smartflux::{DurabilityOptions, EngineConfig, SmartFluxSession, WaveDiagnostics};
use smartflux_datastore::{DataStore, StoreState};
use smartflux_net::{
    Client, DecisionRow, EngineHost, HostConfig, NetServer, SessionSpec, WorkflowRegistry,
};
use smartflux_telemetry::Telemetry;
use smartflux_workloads::lrb::LrbFactory;

const TOTAL_WAVES: u64 = 200;
const CHECKPOINT_INTERVAL: u64 = 20;

fn lrb_config() -> EngineConfig {
    EngineConfig::new()
        .with_training_waves(30)
        .with_quality_gates(0.3, 0.3)
        .with_seed(11)
}

fn lrb_registry() -> WorkflowRegistry {
    let mut registry = WorkflowRegistry::new();
    registry.register("lrb", lrb_config(), |store| {
        LrbFactory::with_bound(0.1).build(store)
    });
    registry
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "smartflux-net-recovery-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_host(root: &PathBuf) -> NetServer {
    let host = EngineHost::new(
        lrb_registry(),
        HostConfig::new()
            .with_durability_root(root)
            .with_checkpoint_interval(CHECKPOINT_INTERVAL),
        Telemetry::disabled(),
    );
    NetServer::start("127.0.0.1:0", host, 4).unwrap()
}

/// The uninterrupted in-process run the resumed session must match.
fn reference_run(dir: &PathBuf) -> (Vec<WaveDiagnostics>, StoreState, u64) {
    let store = DataStore::new();
    let workflow = LrbFactory::with_bound(0.1).build(&store);
    let config = lrb_config()
        .with_durability(DurabilityOptions::new(dir).with_checkpoint_interval(CHECKPOINT_INTERVAL));
    let mut session = SmartFluxSession::new(workflow, store, config).expect("session builds");
    for _ in 0..TOTAL_WAVES {
        session.run_wave().expect("wave runs");
    }
    let diags = session.diagnostics();
    let store = session.scheduler().store().clone();
    drop(session);
    (diags, store.export_state(), store.clock())
}

fn assert_rows_match_reference(rows: &[DecisionRow], reference: &[WaveDiagnostics]) {
    for row in rows {
        let diag = &reference[usize::try_from(row.wave).unwrap() - 1];
        assert_eq!(row.wave, diag.wave);
        assert_eq!(row.training, diag.training);
        assert_eq!(row.impacts, diag.impacts, "wave {} impacts", row.wave);
        assert_eq!(row.decisions, diag.decisions, "wave {} decisions", row.wave);
    }
}

#[test]
fn kill_mid_submit_then_resume_matches_the_reference() {
    let ref_dir = tmp_dir("kill-ref");
    let (ref_diags, ref_state, ref_clock) = reference_run(&ref_dir);

    let root = tmp_dir("kill-root");
    let server = start_host(&root);
    let addr = server.addr();

    let spec = SessionSpec {
        workload: "lrb".into(),
        durable_key: Some("feeder-a".into()),
        resume: true,
        ..SessionSpec::default()
    };

    let mut client = Client::connect(addr).unwrap();
    let opened = client.open_session(&spec).unwrap();
    assert!(!opened.resumed, "first boot has no checkpoint to resume");
    assert_eq!(opened.next_wave, 1);
    let session = opened.session;
    for _ in 0..105 {
        client.submit_wave(session, vec![]).unwrap();
    }

    // A second connection keeps hammering the same session while the
    // host dies under it. The submits that land before the kill succeed;
    // the first one after it must fail *promptly and typed* — no hang,
    // no panic, no torn session state.
    let (started, first_submit) = std::sync::mpsc::channel();
    let victim = std::thread::spawn(move || {
        let mut feeder = Client::connect(addr).unwrap();
        let mut submitted = 0u64;
        loop {
            match feeder.submit_wave(session, vec![]) {
                Ok(_) => {
                    submitted += 1;
                    if submitted == 1 {
                        let _ = started.send(());
                    }
                }
                Err(e) => return (submitted, e.to_string()),
            }
        }
    });
    // Kill a few milliseconds into the feeder's run: mid-submit, and far
    // short of the schedule's end at any wave speed.
    first_submit.recv().unwrap();
    std::thread::sleep(Duration::from_millis(5));
    server.kill();
    let (extra, error) = victim.join().unwrap();
    assert!(!error.is_empty(), "the interrupted submit reports an error");
    let waves_before_kill = 105 + extra;
    assert!(
        waves_before_kill < TOTAL_WAVES,
        "the kill must land mid-run for this test to mean anything"
    );

    // Fresh host over the same root: the session resumes from the last
    // durable checkpoint (a multiple of the interval; the waves past it
    // re-execute, crash-recovery style).
    let server = start_host(&root);
    let mut client = Client::connect(server.addr()).unwrap();
    let reopened = client.open_session(&spec).unwrap();
    assert!(reopened.resumed, "second boot resumes the checkpoint");
    let checkpoint_wave = reopened.next_wave - 1;
    assert_eq!(checkpoint_wave % CHECKPOINT_INTERVAL, 0);
    assert!((100..=waves_before_kill).contains(&checkpoint_wave));

    for _ in checkpoint_wave..TOTAL_WAVES {
        client.submit_wave(reopened.session, vec![]).unwrap();
    }
    let rows = client.query_decisions(reopened.session, 0).unwrap();
    assert_eq!(rows.len() as u64, TOTAL_WAVES - checkpoint_wave);
    assert_eq!(rows.first().unwrap().wave, checkpoint_wave + 1);
    assert_rows_match_reference(&rows, &ref_diags);

    let (clock, state) = client.query_store(reopened.session).unwrap();
    assert_eq!(clock, ref_clock, "logical clocks diverged after recovery");
    assert_eq!(state, ref_state, "store contents diverged after recovery");

    client.close_session(reopened.session).unwrap();
    server.shutdown();
}

#[test]
fn orderly_shutdown_checkpoints_at_the_exact_wave() {
    let ref_dir = tmp_dir("orderly-ref");
    let (ref_diags, ref_state, ref_clock) = reference_run(&ref_dir);

    let root = tmp_dir("orderly-root");
    let server = start_host(&root);
    let spec = SessionSpec {
        workload: "lrb".into(),
        durable_key: Some("feeder-b".into()),
        resume: true,
        ..SessionSpec::default()
    };

    let mut client = Client::connect(server.addr()).unwrap();
    let opened = client.open_session(&spec).unwrap();
    // 87 is deliberately not a checkpoint multiple: only the orderly
    // shutdown's final checkpoint can make wave 88 the resume point.
    for _ in 0..87 {
        client.submit_wave(opened.session, vec![]).unwrap();
    }
    drop(client);
    let report = server.shutdown();
    assert_eq!(report.checkpointed, 1, "one durable session checkpointed");
    assert!(report.checkpoint_failures.is_empty());

    let server = start_host(&root);
    let mut client = Client::connect(server.addr()).unwrap();
    let reopened = client.open_session(&spec).unwrap();
    assert!(reopened.resumed);
    assert_eq!(reopened.next_wave, 88, "orderly shutdown loses nothing");

    for _ in 87..TOTAL_WAVES {
        client.submit_wave(reopened.session, vec![]).unwrap();
    }
    let rows = client.query_decisions(reopened.session, 88).unwrap();
    assert_eq!(rows.len() as u64, TOTAL_WAVES - 87);
    assert_rows_match_reference(&rows, &ref_diags);

    let (clock, state) = client.query_store(reopened.session).unwrap();
    assert_eq!(clock, ref_clock);
    assert_eq!(state, ref_state);

    client.close_session(reopened.session).unwrap();
    server.shutdown();
}
