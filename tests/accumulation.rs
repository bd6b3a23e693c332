//! Integration: §2.1/§2.2 accumulation semantics — cancel vs accumulate —
//! observed through the engine's training-phase labels.

use smartflux::{
    AccumulationMode, EngineConfig, ImpactCombiner, MetricKind, Phase, QodSpec, SmartFluxSession,
};
use smartflux_datastore::{ContainerRef, DataStore, Value};
use smartflux_wms::{FnStep, GraphBuilder, StepContext, Workflow};

/// `feed → copy`: the source writes `value(wave)` into one cell and the
/// bounded step (`maxε` 5%) mirrors it into its output.
fn feed_copy_workflow(
    store: &DataStore,
    value: impl Fn(u64) -> f64 + Send + Sync + 'static,
) -> Workflow {
    let raw = ContainerRef::family("t", "raw");
    let out = ContainerRef::family("t", "out");
    store.ensure_container(&raw).expect("fresh store");
    store.ensure_container(&out).expect("fresh store");
    let mut g = GraphBuilder::new("feed-copy");
    let feed = g.add_step("feed");
    let copy = g.add_step("copy");
    g.add_edge(feed, copy).expect("valid edge");
    let mut wf = Workflow::new(g.build().expect("DAG"));
    wf.bind(
        feed,
        FnStep::new(move |ctx: &StepContext| {
            ctx.put("t", "raw", "r", "v", Value::from(value(ctx.wave())))?;
            Ok(())
        }),
    )
    .source()
    .writes(raw.clone());
    wf.bind(
        copy,
        FnStep::new(|ctx: &StepContext| {
            let v = ctx.get_f64("t", "raw", "r", "v", 0.0)?;
            ctx.put("t", "out", "r", "v", Value::from(v))?;
            Ok(())
        }),
    )
    .reads(raw)
    .writes(out)
    .error_bound(0.05);
    wf
}

/// A workflow whose source oscillates: the value returns to its baseline
/// every second wave, so cancel-mode errors collapse while accumulate-mode
/// errors keep growing.
fn oscillating_workflow(store: &DataStore, amplitude: f64) -> Workflow {
    // 100, 100+a, 100, 100+a, … an exact period-2 oscillation.
    feed_copy_workflow(store, move |wave| {
        if wave.is_multiple_of(2) {
            100.0 + amplitude
        } else {
            100.0
        }
    })
}

fn label_rate(mode: AccumulationMode, amplitude: f64) -> f64 {
    let store = DataStore::new();
    let wf = oscillating_workflow(&store, amplitude);
    let spec = QodSpec::new().with_mode(mode);
    let config = EngineConfig::new()
        .with_training_waves(60)
        .with_quality_gates(0.0, 0.0)
        .with_default_spec(spec)
        .with_seed(1);
    let mut session = SmartFluxSession::new(wf, store, config).expect("bounded step exists");
    session.run_training().expect("training succeeds");
    assert_eq!(session.phase(), Phase::Application);
    session.knowledge_base().positive_rate(0)
}

#[test]
fn cancel_mode_lets_oscillations_cancel() {
    // A 2% oscillation: each single wave's change is below the 5% bound,
    // and in cancel mode the value returns to the baseline so the error
    // never accumulates past it — the step rarely needs to execute.
    let rate = label_rate(AccumulationMode::Cancel, 2.0);
    assert!(rate < 0.2, "cancel-mode label rate {rate}");
}

#[test]
fn accumulate_mode_counts_every_change() {
    // The same 2% oscillation in accumulate mode: per-wave errors add up
    // (|+2| then |−2| …), crossing the 5% bound every few waves.
    let rate = label_rate(AccumulationMode::Accumulate, 2.0);
    assert!(rate > 0.3, "accumulate-mode label rate {rate}");
}

#[test]
fn both_modes_fire_on_large_changes() {
    // A 20% oscillation exceeds the bound on every wave in either mode.
    for mode in [AccumulationMode::Cancel, AccumulationMode::Accumulate] {
        let rate = label_rate(mode, 20.0);
        assert!(rate > 0.9, "{mode:?} label rate {rate}");
    }
}

#[test]
fn rmse_error_metric_works_through_the_engine() {
    // Eq. 4 scaled by the value range: the same oscillation measured with
    // RMSE/scale instead of the relative error.
    let store = DataStore::new();
    let wf = oscillating_workflow(&store, 10.0);
    let spec = QodSpec::new()
        .with_impact(MetricKind::RelativeImpact) // Eq. 2 features
        .with_error(MetricKind::Rmse { scale: 100.0 }); // Eq. 4, range-scaled
    let config = EngineConfig::new()
        .with_training_waves(40)
        .with_quality_gates(0.0, 0.0)
        .with_default_spec(spec)
        .with_seed(2);
    let mut session = SmartFluxSession::new(wf, store, config).expect("bounded step exists");
    session.run_training().expect("training succeeds");
    // RMSE of a ±10 swing over a 100 scale is 0.1 > 0.05: fires regularly.
    let rate = session.knowledge_base().positive_rate(0);
    assert!(rate > 0.4, "rmse label rate {rate}");
    // Eq. 2 impact features stay within [0, 1].
    for row in session.knowledge_base().rows() {
        assert!((0.0..=1.0).contains(&row.impacts[0]));
    }
}

#[test]
fn accumulate_mode_after_an_execution_follows_the_worked_numbers() {
    // The Accumulate-mode spec, with every number worked out by hand. One
    // cell moves by d(w) in wave w (the first write is an insert, so it
    // counts as |v|); Eq. 1 over one cell is ι = |d|, and RMSE over one
    // cell, scaled by 256, is ε = |d| / 256 — all exact in binary.
    //
    // Accumulate mode keeps a running value A per container and reports
    // A + (this wave's change). At the wave boundary a (virtual) execution
    // restarts A at zero; then the wave's change is rolled into A, so the
    // wave a step executes in still counts towards its next impact.
    //
    //   wave          1    2    3    4    5    6    7    8
    //   d(w)          1    2    4    8    1    2    4    1
    //   ι reported    1    3    7   15    9   11   15    5
    //   256·ε         1    3    7   15    9   11   15    5
    //   fires         ·    ·    ·    ✓    ·    ·    ✓    ·     (256 · 0.05 = 12.8)
    //   A afterwards  1    3    7    8    9   11    4    5
    //
    // Were the execution at wave 4 to move the mark as well (what Cancel
    // mode does), wave 4's own change would be forgotten: waves 5–7 would
    // report 1, 3, 7 and the second execution would never happen.
    const VALUES: [f64; 8] = [1.0, 3.0, 7.0, 15.0, 16.0, 18.0, 22.0, 23.0];
    let expected_impacts = [1.0, 3.0, 7.0, 15.0, 9.0, 11.0, 15.0, 5.0];
    let expected_fired = [false, false, false, true, false, false, true, false];

    let store = DataStore::new();
    let wf = feed_copy_workflow(&store, |wave| VALUES[wave as usize - 1]);

    let spec = QodSpec::new()
        .with_mode(AccumulationMode::Accumulate)
        .with_impact(MetricKind::Magnitude)
        .with_combiner(ImpactCombiner::Sum) // one input: ι itself, no exp∘ln round trip
        .with_error(MetricKind::Rmse { scale: 256.0 });
    let config = EngineConfig::new()
        .with_training_waves(20)
        .with_default_spec(spec);
    let mut session = SmartFluxSession::new(wf, store, config).expect("bounded step exists");
    session.run_waves(8).expect("training waves succeed");

    let diagnostics = session.diagnostics();
    let impacts: Vec<f64> = diagnostics.iter().map(|d| d.impacts[0]).collect();
    let errors: Vec<f64> = diagnostics.iter().map(|d| d.errors[0] * 256.0).collect();
    let fired: Vec<bool> = diagnostics.iter().map(|d| d.decisions[0]).collect();
    assert_eq!(impacts, expected_impacts);
    assert_eq!(errors, expected_impacts);
    assert_eq!(fired, expected_fired);
}
