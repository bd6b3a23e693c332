//! Integration: the twin-run evaluation harness across trigger policies,
//! plus a simulation-harness case pinning the QoD→SDF revert path under
//! crash recovery.

use smartflux::eval::{evaluate, EvalPolicy};
use smartflux::{EngineConfig, ImpactCombiner, MetricKind, ModelKind, QodSpec};
use smartflux_sim::{harness, oracles, Scenario};
use smartflux_workloads::aqhi::{AqhiConfig, AqhiFactory};
use smartflux_workloads::lrb::{classify_qod_spec, LrbConfig, LrbFactory};

fn aqhi(bound: f64) -> AqhiFactory {
    AqhiFactory {
        config: AqhiConfig {
            grid: 4,
            zone_size: 2,
            bound,
            ..AqhiConfig::default()
        },
    }
}

fn lrb(bound: f64) -> LrbFactory {
    LrbFactory {
        config: LrbConfig {
            xways: 2,
            segments: 10,
            vehicles: 60,
            query_slots: 6,
            bound,
            ..LrbConfig::default()
        },
    }
}

fn smartflux_config() -> EngineConfig {
    let spec = QodSpec::new().with_combiner(ImpactCombiner::Max);
    EngineConfig::new()
        .with_training_waves(168)
        .with_model(ModelKind::RandomForest {
            trees: 30,
            max_depth: 10,
            threshold: 0.4,
        })
        .with_quality_gates(0.0, 0.0)
        .with_default_spec(spec)
        .with_seed(11)
}

#[test]
fn sync_policy_never_deviates() {
    let report = evaluate(&aqhi(0.05), EvalPolicy::Sync, 48, MetricKind::MeanRelative)
        .expect("evaluation succeeds");
    assert!(report.waves.iter().all(|w| w.measured_error == 0.0));
    assert_eq!(report.confidence.confidence(), 1.0);
    assert_eq!(report.normalized_executions(), 1.0);
}

#[test]
fn seq_policies_save_their_nominal_fraction() {
    for n in [2u64, 5] {
        let report = evaluate(
            &aqhi(0.05),
            EvalPolicy::EveryN { n },
            100,
            MetricKind::MeanRelative,
        )
        .expect("evaluation succeeds");
        let expected = 1.0 / n as f64;
        assert!(
            (report.normalized_executions() - expected).abs() < 0.05,
            "seq{n}: {}",
            report.normalized_executions()
        );
    }
}

/// LRB's one managed sink is its designated output, `classify`, so the
/// sink's own tracker must agree with the harness's `confidence` on every
/// wave. The twins are deterministic, so a run of `n` waves is the first
/// `n` waves of a longer one: agreement after every length is agreement
/// wave for wave.
#[test]
fn a_lone_managed_sink_is_measured_as_the_output() {
    let mut violations = 0;
    for waves in 1..=24 {
        let report = evaluate(
            &lrb(0.01),
            EvalPolicy::EveryN { n: 4 },
            waves,
            MetricKind::MeanRelative,
        )
        .expect("evaluation succeeds");
        let sinks: Vec<_> = report.sinks.iter().collect();
        assert_eq!(
            sinks,
            [(&"classify".to_owned(), &report.confidence)],
            "after {waves} waves"
        );
        violations = report.confidence.violations();
    }
    assert!(violations > 0, "the comparison must see violations");
}

#[test]
fn oracle_dominates_naive_policies_on_confidence() {
    let waves = 168;
    let oracle = evaluate(
        &aqhi(0.05),
        EvalPolicy::Oracle,
        waves,
        MetricKind::MeanRelative,
    )
    .expect("oracle run succeeds");
    let seq3 = evaluate(
        &aqhi(0.05),
        EvalPolicy::EveryN { n: 3 },
        waves,
        MetricKind::MeanRelative,
    )
    .expect("seq3 run succeeds");
    assert!(
        oracle.confidence.confidence() >= seq3.confidence.confidence(),
        "oracle {} vs seq3 {}",
        oracle.confidence.confidence(),
        seq3.confidence.confidence()
    );
    assert!(
        oracle.normalized_executions() < 1.0,
        "oracle should save something"
    );
}

#[test]
fn smartflux_saves_resources_with_bounded_error_on_aqhi() {
    // The full-size grid is exercised by the benchmark harness; a 6×6 grid
    // keeps this integration test quick while staying above the regime
    // where single zone flips dominate the index.
    let factory = AqhiFactory {
        config: AqhiConfig {
            grid: 6,
            zone_size: 2,
            bound: 0.10,
            ..AqhiConfig::default()
        },
    };
    let report = evaluate(
        &factory,
        EvalPolicy::SmartFlux(Box::new(smartflux_config())),
        168,
        MetricKind::MeanRelative,
    )
    .expect("smartflux run succeeds");
    assert!(
        report.normalized_executions() < 1.0,
        "no savings: {}",
        report.normalized_executions()
    );
    assert!(
        report.confidence.confidence() > 0.75,
        "confidence {}",
        report.confidence.confidence()
    );
}

#[test]
fn smartflux_beats_random_on_lrb_confidence() {
    let mut config = smartflux_config();
    config = config.with_step_spec("classify", classify_qod_spec());
    config.training_waves = 240;
    let waves = 120;
    let smart = evaluate(
        &lrb(0.05),
        EvalPolicy::SmartFlux(Box::new(config)),
        waves,
        MetricKind::MeanRelative,
    )
    .expect("smartflux run succeeds");
    let random = evaluate(
        &lrb(0.05),
        EvalPolicy::Random { seed: 3 },
        waves,
        MetricKind::MeanRelative,
    )
    .expect("random run succeeds");
    assert!(
        smart.confidence.confidence() >= random.confidence.confidence(),
        "smartflux {} vs random {}",
        smart.confidence.confidence(),
        random.confidence.confidence()
    );
}

#[test]
fn higher_bounds_do_not_cost_more_executions() {
    let strict = evaluate(
        &aqhi(0.05),
        EvalPolicy::Oracle,
        168,
        MetricKind::MeanRelative,
    )
    .expect("strict run succeeds");
    let loose = evaluate(
        &aqhi(0.20),
        EvalPolicy::Oracle,
        168,
        MetricKind::MeanRelative,
    )
    .expect("loose run succeeds");
    assert!(
        loose.normalized_executions() <= strict.normalized_executions() + 0.02,
        "loose {} vs strict {}",
        loose.normalized_executions(),
        strict.normalized_executions()
    );
}

/// The QoD engine's graceful degradation — reverting a failed step (and
/// its downstream QoD steps) to synchronous SDF execution until each
/// completes a wave again — must survive a crash landing in the middle
/// of the revert window.
///
/// Driven end-to-end by the simulation harness from a pinned repro
/// line: source step 0 aborts its wave every 7th wave (`failures=1`
/// against a retry budget of 1 — sources always execute, so the fault
/// fires in the application phase too), training ends after wave 8, and
/// the session is crash-killed right after the wave-14 abort — so the
/// recovered session must re-establish the fallback from the replayed
/// abort before serving wave 15 synchronously.
#[test]
fn qod_to_sdf_revert_survives_crash_recovery() {
    const REPRO: &str = "sfsim1;seed=0x51af;steps=4;edges=0;waves=24;train=8;wpw=2;rows=3;\
                         drift=0.01;spike=0@0.0;retry=1;faults=ekw@0:7x1;\
                         dur=5+14;net=none";
    let pinned = REPRO.replace(char::is_whitespace, "");
    let scenario: Scenario = pinned.parse().expect("pinned repro must parse");
    assert_eq!(scenario.repro(), pinned, "pinned repro must round-trip");

    let dir = std::env::temp_dir().join(format!("sfsim-policies-{}", std::process::id()));
    let crash = harness::run_scenario(&scenario, &dir, "crash").expect("crash run succeeds");
    let reference =
        harness::run_uninterrupted(&scenario, &dir, "ref").expect("reference run succeeds");
    let _ = std::fs::remove_dir_all(&dir);

    // The session was killed once and recovered once.
    assert_eq!(
        crash.segments.len(),
        2,
        "expected exactly one crash/recover"
    );
    // The scripted fault aborted a post-training wave (seen in both the
    // pre-crash segment and the recovery replay)...
    assert!(
        crash.aborted_waves.contains(&14),
        "wave 14 did not abort: {:?}",
        crash.aborted_waves
    );
    // ...and the engine reverted to synchronous execution afterwards.
    let fallbacks = crash.counters["engine.sdf_fallbacks"];
    assert!(fallbacks > 0, "no SDF fallback recorded after the abort");
    assert!(
        reference.counters["engine.sdf_fallbacks"] > 0,
        "the uninterrupted run must revert too"
    );
    // The wave after the post-crash abort forced execution (the revert
    // is visible in the decision trail, not just the counter).
    let after = crash
        .decisions
        .iter()
        .rev()
        .find(|d| d.wave == 15)
        .expect("wave 15 must be observed by the recovered segment");
    assert!(!after.training, "wave 15 must be in the application phase");
    assert!(
        after.decisions.iter().any(|&d| d),
        "the revert wave must execute at least one QoD step"
    );
    // Recovery mid-revert converges to the uninterrupted truth: same
    // final store, clock, and per-wave decisions.
    let violations = oracles::check_crash_equivalence(&crash, &reference);
    assert!(
        violations.is_empty(),
        "crash/recover diverged from the uninterrupted run:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn evaluation_is_deterministic() {
    let run = || {
        evaluate(
            &aqhi(0.10),
            EvalPolicy::SmartFlux(Box::new(smartflux_config())),
            48,
            MetricKind::MeanRelative,
        )
        .expect("run succeeds")
    };
    let a = run();
    let b = run();
    assert_eq!(a.waves, b.waves);
    assert_eq!(a.confidence_series(), b.confidence_series());
}
