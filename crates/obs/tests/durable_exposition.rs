//! What `/metrics` lists for a durable session: its checkpoint counter,
//! and none of the store-level WAL's series, which no session can move.

use std::time::Duration;

use smartflux::{DurabilityOptions, EngineConfig, SmartFluxSession};
use smartflux_datastore::{ContainerRef, DataStore, Value};
use smartflux_obs::{http, openmetrics, preregister, ObsServer, ObsSources};
use smartflux_telemetry::names;
use smartflux_wms::{FnStep, GraphBuilder, StepContext, Workflow};

#[test]
fn a_durable_session_exposes_checkpoints_and_no_wal_series() {
    let store = DataStore::new();
    let (raw, out) = (
        ContainerRef::family("t", "raw"),
        ContainerRef::family("t", "out"),
    );
    store.ensure_container(&raw).unwrap();
    store.ensure_container(&out).unwrap();
    let mut g = GraphBuilder::new("durable-exposition");
    let (feed, copy) = (g.add_step("feed"), g.add_step("copy"));
    g.add_edge(feed, copy).unwrap();
    let mut wf = Workflow::new(g.build().unwrap());
    wf.bind(
        feed,
        FnStep::new(|ctx: &StepContext| {
            ctx.put("t", "raw", "r", "v", Value::from(ctx.wave() as f64))
                .map(drop)
        }),
    )
    .source()
    .writes(raw.clone());
    wf.bind(
        copy,
        FnStep::new(|ctx: &StepContext| {
            let v = ctx.get_f64("t", "raw", "r", "v", 0.0)?;
            ctx.put("t", "out", "r", "v", Value::from(v)).map(drop)
        }),
    )
    .reads(raw)
    .writes(out)
    .error_bound(0.1);

    let dir = std::env::temp_dir().join(format!("smartflux-obs-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = EngineConfig::new()
        .with_telemetry(true)
        .with_durability(DurabilityOptions::new(&dir).with_checkpoint_interval(4));
    let mut session = SmartFluxSession::new(wf, store, config).unwrap();
    for _ in 0..12 {
        session.run_wave().unwrap();
    }
    let telemetry = session.telemetry().clone();
    preregister(&telemetry);
    let sources = ObsSources {
        telemetry,
        ..ObsSources::default()
    };
    let server = ObsServer::start("127.0.0.1:0", sources, 1).unwrap();
    let addr = server.addr().to_string();
    let (status, text) = http::get(&addr, "/metrics", Duration::from_secs(5)).unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(status, 200);
    let exposition = openmetrics::parse(&text).unwrap();
    assert_eq!(exposition.counter_total(names::CHECKPOINTS), Some(3.0));
    // The families the store-level WAL's series were exposed under.
    for family in [
        "durability_wal_records",
        "durability_wal_bytes",
        "durability_fsync",
        "durability_commit",
        "durability_wal_compact",
    ] {
        assert!(!text.contains(family), "`{family}` is listed:\n{text}");
    }
}
