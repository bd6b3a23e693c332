//! Out-of-bag vs 10-fold test phase: every QoD step of the four wavebench
//! flows, assessed both ways from the same knowledge base, with the gate
//! verdict of each. Writes `results/oob_agreement.csv`.
//!
//! Run with: `cargo run --release -p smartflux-bench --bin oob_agreement`
//! (seeds 17, 29 and ten unseen seeds), or `-- --seed 17` for one seed.

use smartflux_bench::exp::oob_agreement::{run, SUITE_SEEDS, UNSEEN_SEEDS};

fn main() {
    let mut args = std::env::args().skip(1);
    let mut seeds = Vec::new();
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next().map(|v| v.parse::<u64>())) {
            ("--seed", Some(Ok(seed))) => seeds.push(seed),
            _ => {
                eprintln!("usage: oob_agreement [--seed N]...");
                std::process::exit(2);
            }
        }
    }
    if seeds.is_empty() {
        seeds.extend(SUITE_SEEDS.iter().chain(&UNSEEN_SEEDS));
    }
    run(&seeds).expect("every flow trains and every forest fits");
}
