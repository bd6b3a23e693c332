//! Seed robustness: re-runs the headline measurement under several feed and
//! engine seeds, reporting the spread. Demonstrates that the reproduction's
//! savings/confidence are properties of the system, not of one lucky seed.
//!
//! Run with: `cargo run --release -p smartflux-bench --bin seed_robustness`

use smartflux_bench::{heading, pct, write_csv, Workload};

fn main() {
    heading("Seed robustness — headline at the 5% bound across seeds");
    let bound = 0.05;
    let seeds: [u64; 3] = [17, 101, 424_242];
    let mut csv = Vec::new();

    for wl in [Workload::Lrb, Workload::Aqhi] {
        let mut saved = Vec::new();
        let mut conf = Vec::new();
        for &seed in &seeds {
            // Varies the feed seed as well as the model seed.
            let report = wl
                .evaluate_at_seed(bound, seed)
                .expect("evaluation succeeds");
            saved.push(1.0 - report.normalized_executions());
            conf.push(report.confidence.confidence());
            csv.push(format!(
                "{},{seed},{:.4},{:.4}",
                wl.id(),
                1.0 - report.normalized_executions(),
                report.confidence.confidence()
            ));
        }
        let span = |v: &[f64]| {
            let lo = v.iter().copied().fold(f64::MAX, f64::min);
            let hi = v.iter().copied().fold(f64::MIN, f64::max);
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            (mean, lo, hi)
        };
        let (sm, sl, sh) = span(&saved);
        let (cm, cl, ch) = span(&conf);
        println!(
            "{:<5} saved {} [{}–{}], confidence {} [{}–{}] over {} seeds",
            wl.id(),
            pct(sm),
            pct(sl),
            pct(sh),
            pct(cm),
            pct(cl),
            pct(ch),
            seeds.len()
        );
    }
    write_csv(
        "seed_robustness.csv",
        "workload,seed,saved,confidence",
        &csv,
    );
}
