//! `speedup_vs_sdf` in one process: the same application waves of `lrb`,
//! `aqhi` and `pagerank_wide`, at wavebench's engine settings, timed under
//! the engine and under plain synchronous execution in alternating blocks,
//! best of five each. Prints the ratio; writes nothing.
//!
//! Run with: `cargo run --release -p smartflux-bench --bin speedup`
//! (seed 17), or `-- --seed N`.

use smartflux_bench::exp::speedup::run;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = match args.as_slice() {
        [] => 17,
        [flag, seed] if flag == "--seed" => match seed.parse() {
            Ok(seed) => seed,
            Err(_) => usage(),
        },
        _ => usage(),
    };
    if let Err(e) = run(seed) {
        eprintln!("speedup: {e}");
        std::process::exit(1);
    }
}

fn usage() -> ! {
    eprintln!("usage: speedup [--seed N]");
    std::process::exit(2);
}
