//! Acceptance tests for the unified telemetry subsystem: a session run
//! with a JSONL journal sink must produce a journal from which the
//! per-step measured ε and the running confidence can be reconstructed and
//! matched against the engine's own [`WaveDiagnostics`], the metrics
//! snapshot must carry wave latency and store traffic, and a traced wave's
//! event count must follow its steps, not the cells they write.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use smartflux::{
    read_journal, telemetry_names as names, DurabilityOptions, EngineConfig, JournalEntry,
    SmartFluxSession,
};
use smartflux_datastore::{ContainerRef, DataStore, Value};
use smartflux_telemetry::{json_string, MemoryTraceSink, QodStep, SpanEvent};
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
    let scaled = ContainerRef::family("t", "scaled");
    for c in [&raw, &out, &scaled] {
        store.ensure_container(c).unwrap();
    }

    let mut g = GraphBuilder::new("telemetry");
    let feed = g.add_step("feed");
    let agg = g.add_step("agg");
    let scale = g.add_step("scale");
    g.add_edge(feed, agg).unwrap();
    g.add_edge(agg, scale).unwrap();
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
    .writes(out.clone())
    .error_bound(0.05);
    wf.bind(
        scale,
        FnStep::new(|ctx: &StepContext| {
            let v = ctx.get_f64("t", "out", "r", "v", 0.0)?;
            ctx.put("t", "scaled", "r", "v", Value::from(v.sqrt()))?;
            Ok(())
        }),
    )
    .reads(out)
    .writes(scaled)
    .error_bound(0.01);
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

    session.run_training().unwrap();
    session.run_waves(12).unwrap();
    session.telemetry().flush().unwrap();

    let entries = read_journal(&path).unwrap();
    let diags = session.diagnostics();
    // One line per wave, carrying the engine's own row.
    assert_eq!(entries.len(), diags.len());

    // Reconstruct, wave by wave, each step's running confidence from the
    // journal alone, and match it against the one the line carries.
    let mut compliant = [0u64; 2];
    let mut total = 0u64;
    for (entry, diag) in entries.iter().zip(&diags) {
        assert_eq!(entry.row, *diag);
        let names: Vec<&str> = entry.steps.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["agg", "scale"]);
        let Some(truth) = &entry.row.ground_truth else {
            assert!(!entry.row.training, "training waves carry ε");
            continue;
        };
        // Running confidence: fraction of ground-truth waves where ε
        // stayed within maxε.
        total += 1;
        for (i, step) in entry.steps.iter().enumerate() {
            if truth.errors[i] <= step.max_epsilon {
                compliant[i] += 1;
            }
            let expected = compliant[i] as f64 / total as f64;
            let wave = entry.row.wave;
            assert!(
                (truth.confidence[i] - expected).abs() < 1e-9,
                "wave {wave} step {i}"
            );
        }
    }
    assert!(total >= 25, "training waves journaled");

    let _ = std::fs::remove_file(&path);
}

/// A v1 journal (one line per QoD step per wave) written for this seeded
/// run before the schema moved to one line per wave.
const V1_JOURNAL: &str = include_str!("fixtures/journal-v1.jsonl");

/// Renders one v2 line as its v1 lines under DESIGN.md's mapping:
/// `predicted` = `decisions`, `executed` = `decisions[i]`,
/// `measured_epsilon` = `errors[i]` (null on application waves). The
/// confidence is the training wave's own; on an application wave v1
/// repeated the last training wave's (`carried`), which v2 drops.
fn as_v1(JournalEntry { steps, row }: &JournalEntry, carried: &mut Vec<f64>) -> Vec<String> {
    fn list<T: std::fmt::Display>(items: &[T]) -> String {
        let items: Vec<String> = items.iter().map(ToString::to_string).collect();
        format!("[{}]", items.join(","))
    }
    if let Some(truth) = &row.ground_truth {
        carried.clone_from(&truth.confidence);
    }
    let phase = if row.training {
        "training"
    } else {
        "application"
    };
    let line = |(i, step): (usize, &QodStep)| {
        let measured = row.errors().get(i).map_or("null".into(), f64::to_string);
        format!(
            "{{\"wave\":{},\"phase\":\"{phase}\",\"step\":{},\"step_index\":{i},\
             \"impacts\":{},\"predicted\":{},\"executed\":{},\"deferred\":{},\
             \"confidence\":{},\"max_epsilon\":{},\"measured_epsilon\":{measured}}}",
            row.wave,
            json_string(&step.name),
            list(&row.impacts),
            list(&row.decisions),
            row.decisions[i],
            row.deferred,
            carried[i],
            step.max_epsilon,
        )
    };
    steps.iter().enumerate().map(line).collect()
}

#[test]
fn v1_journal_equals_the_v2_journal_under_the_mapping() {
    let path = temp_journal("v1-mapping");
    let store = DataStore::new();
    let wf = workflow(&store);
    let config = EngineConfig::new()
        .with_training_waves(8)
        .with_quality_gates(0.0, 0.0)
        .with_seed(3)
        .with_journal_path(&path);
    let mut session = SmartFluxSession::new(wf, store, config).unwrap();
    session.run_training().unwrap();
    session.run_waves(4).unwrap();
    session.telemetry().flush().unwrap();
    let entries = read_journal(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(entries.iter().any(|e| e.row.training) && entries.iter().any(|e| !e.row.training));

    // The fixture's lines grouped by wave, against each v2 line's rendering.
    let v1: Vec<&str> = V1_JOURNAL.lines().collect();
    let same_wave = |a: &&str, b: &&str| a.split(',').next() == b.split(',').next();
    let v1: Vec<&[&str]> = v1.chunk_by(same_wave).collect();
    assert_eq!(v1.len(), entries.len());
    let mut carried = Vec::new();
    for (lines, entry) in v1.into_iter().zip(&entries) {
        assert_eq!(lines, as_v1(entry, &mut carried), "wave {}", entry.row.wave);
    }
}

/// Runs `session` through training and five application waves, then checks
/// the snapshot's wave, step and engine series, and that `store.writes` is
/// exactly the store clock's growth since `clock_base`, the clock when the
/// session was built.
fn assert_reports_waves_and_store_traffic(session: &mut SmartFluxSession, clock_base: u64) {
    session.run_training().unwrap();
    session.run_waves(5).unwrap();

    let snap = session.telemetry().snapshot();
    let waves = snap
        .histogram(names::WAVE_LATENCY)
        .expect("wave latency histogram exists");
    assert_eq!(waves.count, session.executed_waves());
    let steps = snap
        .histogram(names::STEP_TOTAL_LATENCY)
        .expect("step latency histogram exists");
    assert!(steps.count > 0);
    assert!(snap.counter(names::STEPS_EXECUTED) > 0);
    let clock = session.scheduler().store().clock();
    assert!(clock > clock_base, "the waves wrote");
    assert_eq!(
        snap.counter(names::STORE_WRITES),
        clock - clock_base,
        "store writes are the clock's growth since the session was built"
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

fn telemetry_on() -> EngineConfig {
    EngineConfig::new()
        .with_training_waves(15)
        .with_quality_gates(0.3, 0.3)
        .with_seed(11)
        .with_telemetry(true)
}

#[test]
fn snapshot_reports_waves_and_store_traffic() {
    let store = DataStore::new();
    let wf = workflow(&store);
    assert_eq!(store.clock(), 0);
    let mut session = SmartFluxSession::new(wf, store, telemetry_on()).unwrap();
    assert_eq!(
        session.telemetry().snapshot().counter(names::STORE_WRITES),
        0
    );
    assert_reports_waves_and_store_traffic(&mut session, 0);
}

#[test]
fn store_writes_exclude_writes_made_before_the_session() {
    let store = DataStore::new();
    let wf = workflow(&store);
    for row in ["a", "b", "c"] {
        store.put("t", "raw", row, "v", Value::from(1.0)).unwrap();
    }
    let base = store.clock();
    assert_eq!(base, 3);
    let mut session = SmartFluxSession::new(wf, store, telemetry_on()).unwrap();
    assert_eq!(
        session.telemetry().snapshot().counter(names::STORE_WRITES),
        0
    );
    assert_reports_waves_and_store_traffic(&mut session, base);
}

#[test]
fn store_writes_of_a_recovered_session_start_at_its_checkpoint() {
    let dir = std::env::temp_dir().join(format!(
        "smartflux-telemetry-recover-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config =
        telemetry_on().with_durability(DurabilityOptions::new(&dir).with_checkpoint_interval(4));
    let store = DataStore::new();
    let mut first = SmartFluxSession::new(workflow(&store), store, config.clone()).unwrap();
    first.run_waves(10).unwrap();
    drop(first);

    // The checkpoint at wave 8 restores a clock past zero; the recovered
    // session counts only what it writes itself.
    let mut session = SmartFluxSession::recover(workflow(&DataStore::new()), config).unwrap();
    let base = session.scheduler().store().clock();
    assert!(base > 0, "the checkpoint restored a written store");
    assert_eq!(
        session.telemetry().snapshot().counter(names::STORE_WRITES),
        0
    );
    assert_reports_waves_and_store_traffic(&mut session, base);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Trace events one LRB wave may emit per step and per step attempt. A
/// wave's spans are its root, one `wms.step_total` and one
/// `wms.step_attempt` per executed step and attempt, the engine's impact,
/// predict, error and baseline-reset spans per
/// QoD step, its end-of-wave span and, on the last training wave, the
/// build: at seed 17 at most 48 for 9 steps and 9 attempts, however many
/// cells the steps write.
const TRACE_EVENTS_PER_STEP: usize = 4;

#[test]
fn a_traced_lrb_wave_emits_events_per_step_not_per_write() {
    use smartflux::eval::WorkloadFactory;
    use smartflux_workloads::lrb::LrbFactory;

    let store = DataStore::new();
    let wf = LrbFactory::with_bound(0.1).build(&store);
    let steps = wf.graph().len();
    let config = EngineConfig::new()
        .with_training_waves(20)
        .with_quality_gates(0.0, 0.0)
        .with_seed(17)
        .with_telemetry(true);
    let mut session = SmartFluxSession::new(wf, store, config).unwrap();
    let sink = Arc::new(MemoryTraceSink::new());
    session.telemetry().set_trace_sink(Some(sink.clone()));
    session.run_training().unwrap();
    session.run_waves(10).unwrap();

    let mut waves: BTreeMap<u64, Vec<SpanEvent>> = BTreeMap::new();
    for event in sink.events() {
        waves.entry(event.trace_id).or_default().push(event);
    }
    assert_eq!(waves.len() as u64, session.executed_waves());
    let writes = session.telemetry().snapshot().counter(names::STORE_WRITES);
    assert!(
        writes / session.executed_waves() > 1_000,
        "an LRB wave writes over a thousand cells ({writes} in all)"
    );
    for events in waves.values() {
        assert!(
            events.iter().all(|e| e.name != "store.write"),
            "no per-write trace event"
        );
        let attempts = events
            .iter()
            .filter(|e| e.name == names::STEP_ATTEMPT_LATENCY)
            .count();
        assert!(attempts > 0);
        assert!(
            events.len() <= TRACE_EVENTS_PER_STEP * (steps + attempts),
            "{} events for {steps} steps and {attempts} attempts",
            events.len()
        );
    }
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
    let snap = session.telemetry().snapshot();
    assert_eq!(snap.counter(names::STEPS_EXECUTED), 0);
    assert_eq!(snap.counter(names::STORE_WRITES), 0);
    assert!(snap.histogram(names::WAVE_LATENCY).is_none());
    assert_eq!(snap.gauge(names::QOD_MODEL_AGE_WAVES), 0);
}
