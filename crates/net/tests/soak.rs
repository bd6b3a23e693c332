//! Loopback soak: four concurrent clients each drive a full 200-wave
//! Linear Road run through the socket, and every one of them must match
//! the in-process reference decision-for-decision, store-byte-for-byte,
//! clock-tick-for-clock-tick. The `net.*` telemetry the run produces
//! must be visible through the observability plane's `/metrics`
//! endpoint.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use smartflux::eval::WorkloadFactory;
use smartflux::{DurabilityOptions, EngineConfig, SmartFluxSession, WaveDiagnostics};
use smartflux_datastore::{DataStore, StoreState};
use smartflux_net::{Client, EngineHost, HostConfig, NetServer, SessionSpec, WorkflowRegistry};
use smartflux_obs::{openmetrics, ObsServer, ObsSources};
use smartflux_telemetry::{names, Telemetry};
use smartflux_workloads::lrb::LrbFactory;

const TOTAL_WAVES: u64 = 200;
const CLIENTS: usize = 4;

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
    let dir = std::env::temp_dir().join(format!("smartflux-net-soak-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The uninterrupted in-process run every networked session must match.
fn reference_run(dir: &PathBuf) -> (Vec<WaveDiagnostics>, StoreState, u64) {
    let store = DataStore::new();
    let workflow = LrbFactory::with_bound(0.1).build(&store);
    let config =
        lrb_config().with_durability(DurabilityOptions::new(dir).with_checkpoint_interval(20));
    let mut session = SmartFluxSession::new(workflow, store, config).expect("session builds");
    for _ in 0..TOTAL_WAVES {
        session.run_wave().expect("wave runs");
    }
    let diags = session.diagnostics();
    let store = session.scheduler().store().clone();
    drop(session);
    (diags, store.export_state(), store.clock())
}

fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut body = String::new();
    stream.read_to_string(&mut body).unwrap();
    match body.split_once("\r\n\r\n") {
        Some((_, payload)) => payload.to_owned(),
        None => body,
    }
}

#[test]
fn four_concurrent_clients_match_the_in_process_run_exactly() {
    let ref_dir = tmp_dir("ref");
    let (ref_diags, ref_state, ref_clock) = reference_run(&ref_dir);
    assert_eq!(ref_diags.len() as u64, TOTAL_WAVES);

    // One telemetry handle shared between the engine host and the
    // observability plane — exactly how a deployment wires them.
    let telemetry = Telemetry::enabled();
    let host = EngineHost::new(lrb_registry(), HostConfig::new(), telemetry.clone());
    let server = NetServer::start("127.0.0.1:0", host, CLIENTS + 1).unwrap();
    let addr = server.addr();
    let obs = ObsServer::start(
        "127.0.0.1:0",
        ObsSources {
            telemetry: telemetry.clone(),
            ..ObsSources::default()
        },
        1,
    )
    .unwrap();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let opened = client
                    .open_session(&SessionSpec {
                        workload: "lrb".into(),
                        ..SessionSpec::default()
                    })
                    .unwrap();
                assert!(!opened.resumed);
                assert_eq!(opened.next_wave, 1);
                let mut reports = Vec::new();
                for _ in 0..TOTAL_WAVES {
                    reports.push(client.submit_wave(opened.session, vec![]).unwrap());
                }
                assert_eq!(client.drain(opened.session).unwrap(), TOTAL_WAVES);
                let rows = client.query_decisions(opened.session, 0).unwrap();
                let (clock, state) = client.query_store(opened.session).unwrap();
                client.close_session(opened.session).unwrap();
                (reports, rows, clock, state)
            })
        })
        .collect();

    for handle in handles {
        let (reports, rows, clock, state) = handle.join().unwrap();
        assert_eq!(reports.len() as u64, TOTAL_WAVES);
        for (i, report) in reports.iter().enumerate() {
            assert_eq!(report.wave, i as u64 + 1);
        }
        // Decision-for-decision equivalence with the in-process run,
        // impacts bit-exact.
        assert_eq!(rows.len(), ref_diags.len());
        for (row, diag) in rows.iter().zip(&ref_diags) {
            assert_eq!(row.wave, diag.wave);
            assert_eq!(row.training, diag.training);
            assert_eq!(row.impacts, diag.impacts);
            assert_eq!(row.decisions, diag.decisions);
        }
        // Store-byte and clock-tick equivalence.
        assert_eq!(clock, ref_clock, "logical clocks diverged");
        assert_eq!(state, ref_state, "store contents diverged");
    }

    // The run's net.* telemetry is served by the observability plane.
    let metrics = http_get(obs.addr(), "/metrics");
    let parsed = openmetrics::parse(&metrics).unwrap();
    let frames_in = parsed.counter_total(names::NET_FRAMES_IN).unwrap();
    assert!(
        frames_in >= (CLIENTS as u64 * TOTAL_WAVES) as f64,
        "expected at least one inbound frame per wave per client, saw {frames_in}"
    );
    assert!(parsed.counter_total(names::NET_CONNECTIONS).unwrap() >= CLIENTS as f64);
    assert_eq!(parsed.counter_total(names::NET_FRAME_ERRORS), Some(0.0));

    obs.shutdown();
    // No session is durable here, so an orderly shutdown checkpoints none.
    let report = server.shutdown();
    assert_eq!(report.checkpointed, 0);
    assert!(report.checkpoint_failures.is_empty());
}
