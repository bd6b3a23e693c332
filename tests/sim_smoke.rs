//! Tier-1 sim smoke: a handful of pinned `crates/sim` seeds through every
//! oracle the sweep applies (`smartflux_sim::oracles::run_all`), so the
//! default verify crosses the whole stack — store, engine, scheduler,
//! durability and the wire plane. The sweep itself is
//! `crates/sim/tests/sweep.rs`.

use smartflux_sim::{oracles, Scenario};

/// The pinned seeds, and what each brings.
const SEEDS: [(u64, &str); 4] = [
    (13, "a crash-kill recovering in the training phase"),
    (
        16,
        "two crash-kills recovering in the application phase (the predictor \
         refit), step faults",
    ),
    (
        40,
        "a crash-kill recovering in the application phase, step faults, the \
         loopback wire plane",
    ),
    (
        19,
        "seeded transient faults on two steps under a three-attempt retry \
         budget, periodic checkpoints and no kill",
    ),
];

#[test]
fn pinned_seeds_pass_every_oracle() {
    let dir = std::env::temp_dir().join(format!("sfsim-smoke-{}", std::process::id()));
    let mut refits = 0;
    for (seed, brings) in SEEDS {
        let scenario = Scenario::generate(seed);
        println!("sim smoke seed {seed} ({brings}): {}", scenario.repro());
        if let Some(plan) = &scenario.durability {
            // A kill resumes from the last checkpoint at or before it. The
            // sim's quality gates are zero, so training ends on schedule
            // and that checkpoint is in the application phase iff it is
            // not before the last training wave.
            let training_ends = scenario.training_waves as u64;
            refits += plan
                .kills
                .iter()
                .filter(|&&kill| kill - kill % plan.checkpoint_interval >= training_ends)
                .count();
        }
        let violations = oracles::run_all(&scenario, &dir).unwrap();
        assert!(
            violations.is_empty(),
            "seed {seed} tripped oracles:\n{}",
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
    assert!(
        refits > 0,
        "no pinned seed recovers in the application phase"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
