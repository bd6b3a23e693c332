//! Parallel-wave parity: the LRB-style pipeline must behave identically —
//! decision for decision, value for value — whether its waves run
//! sequentially (`run_wave`) or with each level's steps in parallel
//! (`run_wave_parallel`).
//!
//! Parallel waves may interleave sibling steps differently between runs,
//! so the bar is identical wave outcomes, identical final values and an
//! identical clock — not identical per-cell timestamps.

use smartflux_datastore::{ContainerRef, DataStore, Snapshot, Value};
use smartflux_wms::{
    FnStep, GraphBuilder, Scheduler, StepContext, StepId, TriggerPolicy, Workflow,
};

/// Waves of the parity runs (matches the chaos-test acceptance runs).
const WAVES: u64 = 200;

/// Container families written by the pipeline, in step order.
const FAMILIES: [&str; 5] = ["feed", "seg", "tolls", "acc", "report"];

/// splitmix64-style mixer for the deterministic skip policy.
fn mix(wave: u64, idx: u64) -> u64 {
    let mut z = wave
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(idx.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic skip policy: decisions depend only on `(wave, step)`, so
/// every scheduler in a comparison sees identical choices.
struct HashSkipPolicy;

impl TriggerPolicy for HashSkipPolicy {
    fn should_trigger(&mut self, wave: u64, step: StepId, workflow: &Workflow) -> bool {
        if workflow.graph().predecessors(step).is_empty() {
            return true; // sources always run
        }
        !mix(wave, step.index() as u64).is_multiple_of(3)
    }
}

/// Builds the LRB-inspired pipeline `feed → {seg, tolls, acc} → report`
/// on a fresh store.
fn lrb_scheduler() -> Scheduler {
    let store = DataStore::new();
    store.create_table("lrb").unwrap();
    for family in FAMILIES {
        store.create_family("lrb", family).unwrap();
    }

    let mut g = GraphBuilder::new("lrb");
    let feed = g.add_step("feed");
    let seg = g.add_step("seg");
    let tolls = g.add_step("tolls");
    let acc = g.add_step("acc");
    let report = g.add_step("report");
    for branch in [seg, tolls, acc] {
        g.add_edge(feed, branch).unwrap();
        g.add_edge(branch, report).unwrap();
    }
    let mut wf = Workflow::new(g.build().unwrap());

    wf.bind(
        feed,
        FnStep::new(|ctx: &StepContext| {
            ctx.put("lrb", "feed", "r", "v", Value::from(ctx.wave() as f64))?;
            Ok(())
        }),
    )
    .source();

    type Branch = (StepId, fn(f64) -> f64);
    let branches: [Branch; 3] = [
        (seg, |v| v * 2.0),
        (tolls, |v| v + 10.0),
        (acc, |v| v * 0.5),
    ];
    for (idx, (id, f)) in branches.into_iter().enumerate() {
        let family = FAMILIES[idx + 1];
        wf.bind(
            id,
            FnStep::new(move |ctx: &StepContext| {
                let v = ctx.get_f64("lrb", "feed", "r", "v", 0.0)?;
                ctx.put("lrb", family, "r", "v", Value::from(f(v)))?;
                Ok(())
            }),
        );
    }

    wf.bind(
        report,
        FnStep::new(|ctx: &StepContext| {
            let mut sum = 0.0;
            for family in ["seg", "tolls", "acc"] {
                sum += ctx.get_f64("lrb", family, "r", "v", 0.0)?;
            }
            ctx.put("lrb", "report", "r", "v", Value::from(sum))?;
            Ok(())
        }),
    );

    Scheduler::new(wf, store, Box::new(HashSkipPolicy))
}

/// Snapshots every pipeline family, for whole-store value comparisons.
fn store_state(sched: &Scheduler) -> Vec<Snapshot> {
    FAMILIES
        .iter()
        .map(|family| {
            sched
                .store()
                .snapshot(&ContainerRef::family("lrb", *family))
                .unwrap()
        })
        .collect()
}

#[test]
fn parallel_waves_match_the_sequential_run() {
    // 200 waves of `run_wave_parallel`, decision-for-decision and
    // value-for-value identical to the same waves run one step at a time.
    let mut seq = lrb_scheduler();
    let mut par = lrb_scheduler();

    for wave in 0..WAVES {
        let a = seq.run_wave().unwrap();
        let b = par.run_wave_parallel().unwrap();
        assert_eq!(a, b, "decisions diverged at wave {wave}");
    }

    // Values agree; timestamps may not (parallel siblings interleave), so
    // compare snapshots rather than the full export.
    assert_eq!(store_state(&seq), store_state(&par));

    // Both runs applied the same number of puts — and the clock counts
    // exactly the applied mutations — so the clocks agree even though
    // individual timestamps may differ.
    assert_eq!(seq.store().clock(), par.store().clock());

    // Per-step tallies agree.
    for family in FAMILIES {
        let s = seq.workflow().graph().step_id(family).unwrap();
        let p = par.workflow().graph().step_id(family).unwrap();
        assert_eq!(
            seq.stats().executions(s),
            par.stats().executions(p),
            "executions of `{family}`"
        );
        assert_eq!(
            seq.stats().skips(s),
            par.stats().skips(p),
            "skips of `{family}`"
        );
    }
    assert_eq!(seq.stats().waves(), WAVES);
    assert_eq!(par.stats().waves(), WAVES);
    assert_eq!(par.stats().waves_aborted(), 0);
}
