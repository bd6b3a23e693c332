//! Mutation check: the harness must catch a deliberately reintroduced,
//! known-fixed bug.
//!
//! Built only under `RUSTFLAGS="--cfg sim_mutation"`, which recompiles
//! `smartflux-net` with a close-vs-submit race put back (a submit that
//! found its session's slot just before a close then waits for a
//! session mutex the close never releases, and is stranded without an
//! answer). The smoke sweep must find it,
//! shrink it, and hand back a parseable repro that still names the
//! close-race exercise.

#![cfg(sim_mutation)]

use smartflux_sim::sweep::{self, SweepOptions};
use smartflux_sim::Scenario;

#[test]
fn smoke_sweep_catches_the_reintroduced_close_race() {
    let dir = std::env::temp_dir().join(format!("sfsim-mutation-{}", std::process::id()));
    let options = SweepOptions {
        cases: 256,
        stop_on_failure: true,
        shrink_budget: 12,
        ..SweepOptions::default()
    };
    let outcome = sweep::sweep(&options, &dir, &mut |line| println!("{line}"));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        !outcome.passed(),
        "the reintroduced close/submit race survived the {}-case smoke sweep undetected",
        options.cases
    );
    let failure = &outcome.failures[0];
    assert!(
        failure.violations.iter().any(|v| v.oracle == "close-race"),
        "mutation was caught, but not by the close-race oracle: {failure}"
    );
    // The shrunk repro replays: it parses and still requests the race.
    let repro = failure.scenario.repro();
    let parsed: Scenario = repro.parse().expect("shrunk repro must parse");
    assert!(
        parsed.net.is_some_and(|n| n.close_race),
        "shrunk repro lost the close-race plan: {repro}"
    );
    println!("caught and shrunk:\n{failure}");
}
