//! Acceptance tests for the unified telemetry subsystem: a session run
//! with a JSONL journal sink must produce a journal from which the
//! per-step measured ε and the running confidence can be reconstructed and
//! matched against the engine's own [`WaveDiagnostics`], and the metrics
//! snapshot must carry wave latency and store traffic.

use std::path::PathBuf;

use smartflux::{read_journal, telemetry_names as names, EngineConfig, SmartFluxSession};
use smartflux_datastore::{ContainerRef, DataStore, Value};
use smartflux_wms::{FnStep, GraphBuilder, StepContext, Workflow};

fn temp_journal(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "smartflux-journal-{}-{tag}.jsonl",
        std::process::id()
    ));
    p
}

fn workflow(store: &DataStore) -> Workflow {
    let raw = ContainerRef::family("t", "raw");
    let out = ContainerRef::family("t", "out");
    store.ensure_container(&raw).unwrap();
    store.ensure_container(&out).unwrap();

    let mut g = GraphBuilder::new("telemetry");
    let feed = g.add_step("feed");
    let agg = g.add_step("agg");
    g.add_edge(feed, agg).unwrap();
    let mut wf = Workflow::new(g.build().unwrap());
    wf.bind(
        feed,
        FnStep::new(|ctx: &StepContext| {
            let w = ctx.wave() as f64;
            ctx.put(
                "t",
                "raw",
                "r",
                "v",
                Value::from(100.0 + (w / 3.0).sin() * 10.0),
            )?;
            Ok(())
        }),
    )
    .source()
    .writes(raw.clone());
    wf.bind(
        agg,
        FnStep::new(|ctx: &StepContext| {
            let v = ctx.get_f64("t", "raw", "r", "v", 0.0)?;
            ctx.put("t", "out", "r", "v", Value::from(v * 2.0))?;
            Ok(())
        }),
    )
    .reads(raw)
    .writes(out)
    .error_bound(0.05);
    wf
}

#[test]
fn journal_reconstructs_epsilon_and_confidence() {
    let path = temp_journal("reconstruct");
    let _ = std::fs::remove_file(&path);

    let store = DataStore::new();
    let wf = workflow(&store);
    let config = EngineConfig::new()
        .with_training_waves(25)
        .with_quality_gates(0.3, 0.3)
        .with_seed(7)
        .with_journal_path(&path);
    let mut session = SmartFluxSession::new(wf, store, config).unwrap();
    assert!(session.telemetry().is_enabled());
    assert_eq!(session.telemetry().journal_path().as_deref(), Some(&*path));

    session.run_training().unwrap();
    session.run_waves(12).unwrap();
    session.telemetry().flush().unwrap();

    let records = read_journal(&path).unwrap();
    let diags = session.diagnostics();
    // One QoD step ("agg") → one record per wave.
    assert_eq!(records.len(), diags.len());

    // Reconstruct, wave by wave, the measured ε and the running confidence
    // from the journal alone, and match them against the engine.
    let mut compliant = 0u64;
    let mut total = 0u64;
    for (rec, diag) in records.iter().zip(&diags) {
        assert_eq!(rec.wave, diag.wave);
        assert_eq!(rec.step, "agg");
        assert_eq!(rec.step_index, 0);
        assert_eq!(rec.max_epsilon, 0.05);
        assert_eq!(rec.impacts.len(), 1);
        assert!((rec.impacts[0] - diag.impacts[0]).abs() < 1e-9);
        assert_eq!(rec.predicted, diag.decisions);
        assert_eq!(rec.executed, diag.decisions[0]);
        if diag.training {
            assert_eq!(rec.phase, "training");
            let eps = rec.measured_epsilon.expect("training waves carry ε");
            assert!((eps - diag.errors[0]).abs() < 1e-9);
            // Running confidence: fraction of ground-truth waves where
            // ε stayed within maxε.
            total += 1;
            if eps <= rec.max_epsilon {
                compliant += 1;
            }
            let expected = compliant as f64 / total as f64;
            assert!(
                (rec.confidence - expected).abs() < 1e-9,
                "wave {}: journal confidence {} != reconstructed {}",
                rec.wave,
                rec.confidence,
                expected
            );
        } else {
            assert_eq!(rec.phase, "application");
            assert!(rec.measured_epsilon.is_none());
            // Application waves carry the last ground-truth confidence.
            let expected = compliant as f64 / total as f64;
            assert!((rec.confidence - expected).abs() < 1e-9);
        }
    }
    assert!(total >= 25, "training waves journaled");

    let _ = std::fs::remove_file(&path);
}

#[test]
fn snapshot_reports_waves_and_store_traffic() {
    let store = DataStore::new();
    let wf = workflow(&store);
    let config = EngineConfig::new()
        .with_training_waves(15)
        .with_quality_gates(0.3, 0.3)
        .with_seed(11)
        .with_telemetry(true);
    let mut session = SmartFluxSession::new(wf, store, config).unwrap();
    session.run_training().unwrap();
    session.run_waves(5).unwrap();

    let snap = session.telemetry().snapshot();
    let waves = snap
        .histogram(names::WAVE_LATENCY)
        .expect("wave latency histogram exists");
    assert_eq!(waves.count, session.executed_waves());
    let steps = snap
        .histogram(names::STEP_LATENCY)
        .expect("step latency histogram exists");
    assert!(steps.count > 0);
    assert!(snap.counter(names::STEPS_EXECUTED) > 0);
    assert!(snap.counter(names::STORE_READS) > 0, "store reads counted");
    assert!(
        snap.counter(names::STORE_WRITES) > 0,
        "store writes counted"
    );
    assert!(
        snap.histogram(names::IMPACT_LATENCY).is_some(),
        "impact spans recorded"
    );
    // One error span per QoD step per training wave; a baseline reset
    // whenever a bound fired or a step ran; one end-of-wave span per wave.
    for name in [names::ERROR_LATENCY, names::BASELINE_RESET_LATENCY] {
        assert!(
            snap.histogram(name).is_some_and(|h| h.count > 0),
            "{name} spans recorded"
        );
    }
    assert_eq!(
        snap.histogram(names::END_WAVE_LATENCY).map(|h| h.count),
        Some(session.executed_waves()),
        "one end-of-wave span per wave"
    );
    assert!(
        snap.histogram(names::TRAIN_LATENCY)
            .is_some_and(|h| h.count >= 1),
        "training span recorded"
    );
    assert!(
        snap.histogram(names::PREDICT_LATENCY)
            .is_some_and(|h| h.count > 0),
        "predict spans recorded"
    );
    // How old is the model: five application waves since the build, on
    // `/metrics` and `/healthz` alike.
    assert_eq!(snap.gauge(names::QOD_MODEL_AGE_WAVES), 5);
    let health = session.telemetry().health().snapshot();
    assert_eq!(health.model_age_waves, 5);
    assert_eq!(
        snap.gauge(names::ML_MODEL_BUILD_MS),
        i64::try_from(health.model_build_ms).unwrap()
    );
}

#[test]
fn disabled_telemetry_stays_silent() {
    let store = DataStore::new();
    let wf = workflow(&store);
    let config = EngineConfig::new()
        .with_training_waves(10)
        .with_quality_gates(0.3, 0.3)
        .with_seed(13);
    let mut session = SmartFluxSession::new(wf, store, config).unwrap();
    session.run_training().unwrap();
    session.run_waves(3).unwrap();

    assert!(!session.telemetry().is_enabled());
    assert!(session.telemetry().journal_path().is_none());
    let snap = session.telemetry().snapshot();
    assert_eq!(snap.counter(names::STEPS_EXECUTED), 0);
    assert_eq!(snap.counter(names::STORE_READS), 0);
    assert!(snap.histogram(names::WAVE_LATENCY).is_none());
    assert_eq!(snap.gauge(names::QOD_MODEL_AGE_WAVES), 0);
}
