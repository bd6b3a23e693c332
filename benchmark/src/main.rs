//! `wavebench`: the repository's end-to-end wave benchmark.
//!
//! ```text
//! wavebench run --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//! wavebench suite [--seed N] [--quick] [--reps R]               every workload, gate, result.json
//! wavebench compare A.json B.json                               verdict per workload x metric
//! ```
//!
//! `benchmark/run.sh` builds this package and dispatches to the first two;
//! `benchmark/README.md` is the glossary of workloads and metrics.

mod common;
mod compare;
mod hostspeed;
mod inproc;
mod json;
mod layers;
mod metrics;
mod probes;
mod run;
mod served;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::json::obj;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::{RunArgs, RunReport};

/// `--key value` pairs and bare flags after the subcommand.
struct Cli {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
    positional: Vec<String>,
}

const FLAGS: [&str; 1] = ["--quick"];

impl Cli {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut cli = Cli {
            pairs: Vec::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if FLAGS.contains(&arg.as_str()) {
                cli.flags.push(arg.clone());
            } else if arg.starts_with("--") {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                cli.pairs.push((arg.clone(), value.clone()));
            } else {
                cli.positional.push(arg.clone());
            }
        }
        Ok(cli)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{key}: `{text}` is not a valid number")),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Where the benchmark may write: `--out`, else `benchmark/out` under
    /// the current directory (the checkout root, per the run contract).
    fn out_dir(&self) -> PathBuf {
        self.get("--out")
            .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
    }
}

fn usage() -> String {
    "usage: wavebench run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--detail <file>] [--out <dir>]\n\
     \x20      wavebench suite [--seed <n>] [--seconds <s>] [--reps <r>] [--only <workload>] [--quick] [--out <dir>]\n\
     \x20      wavebench compare <A.json> <B.json>\n\
     \x20      wavebench capacity [--seed <n>] [--seconds <s>]\n\
     workloads: lrb aqhi pagerank_wide lrb_served ramp_open"
        .to_owned()
}

/// The one line the run contract wants last on standard output.
fn driver_line(report: &RunReport, trace: bool) -> String {
    let defs: &[_] = if trace { &PER_LAYER } else { &END_TO_END };
    obj([
        ("correct", report.correct.into()),
        ("attempted", report.attempted.into()),
        ("failed", report.failed.into()),
        ("metrics", report.metrics.driver_metrics(defs)),
    ])
    .compact()
}

fn cmd_run(cli: &Cli) -> Result<ExitCode, String> {
    let name = cli.get("--workload").ok_or_else(usage)?;
    let workload =
        workloads::find(name).ok_or_else(|| format!("unknown workload `{name}`\n{}", usage()))?;
    let seconds: f64 = cli.number("--seconds", 8.0)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match cli.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    pin_open_loop(workload);
    let out = cli.out_dir();
    let args = RunArgs {
        workload,
        seed: cli.number("--seed", 17)?,
        seconds,
        quick: cli.flag("--quick"),
        scratch: out.join("tmp"),
    };
    let report = if trace {
        layers::run_per_layer(&args, &out)?
    } else {
        run::run_end_to_end(&args)?
    };
    if let Some(path) = cli.get("--detail") {
        std::fs::write(path, report.detail.pretty()).map_err(|e| format!("write {path}: {e}"))?;
    }
    println!("{}", driver_line(&report, trace));
    Ok(if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// An open-loop workload runs on one processor, server and generators
/// alike: pinned before the first thread starts. Between two processors of
/// the seed host every hop of a round trip goes through the hypervisor, and
/// whether a session's threads share a processor changed the round trip
/// from run to run (README, "One processor"). Where pinning is not
/// possible the run goes on as placed, and says so.
fn pin_open_loop(workload: &workloads::Workload) {
    if workload.drive != workloads::Drive::ServedOpen {
        return;
    }
    if let Err(why) = common::pin_to_one_processor() {
        eprintln!(
            "wavebench: {}: not pinned to one processor: {why}",
            workload.name
        );
    }
}

/// Closed-loop capacity of `ramp_open`'s configuration on this host — the
/// measurement its frozen open-loop rate is derived from.
fn cmd_capacity(cli: &Cli) -> Result<ExitCode, String> {
    let workload = workloads::find("ramp_open").expect("ramp_open is a workload");
    pin_open_loop(workload);
    let seed = cli.number("--seed", 17)?;
    let seconds = cli.number("--seconds", 8.0)?;
    let scratch = run::Scratch::new(&cli.out_dir().join("tmp"), "capacity")?;
    let (server, mut connections, _) = served::setup(workload, seed, scratch.path(), None)?;
    let wps = served::closed_capacity(&mut connections, seconds)?;
    let p50: Vec<f64> = connections
        .iter()
        .map(|c| stats::median_sorted(&common::sorted_us(&c.log.wave_ns)))
        .collect();
    drop(connections);
    server.shutdown();
    println!(
        "ramp_open closed loop, {} connections: {wps:.0} waves/s in total, {:.0} per connection; round trip p50 per connection {p50:.1?} us",
        workload.connections,
        wps / workload.connections as f64
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let outcome = Cli::parse(rest).and_then(|cli| match command.as_str() {
        "run" => cmd_run(&cli),
        "suite" => suite::cmd_suite(&cli_suite_args(&cli)?),
        "compare" => compare::cmd_compare(&cli.positional),
        "capacity" => cmd_capacity(&cli),
        _ => Err(usage()),
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("wavebench: {message}");
            ExitCode::from(2)
        }
    }
}

fn cli_suite_args(cli: &Cli) -> Result<suite::SuiteArgs, String> {
    let quick = cli.flag("--quick");
    Ok(suite::SuiteArgs {
        seed: cli.number("--seed", 17)?,
        seconds: cli.number("--seconds", if quick { 1.0 } else { 8.0 })?,
        reps: cli.number("--reps", if quick { 1 } else { 3 })?,
        quick,
        out: cli.out_dir(),
        only: cli.get("--only").map(str::to_owned),
    })
}

/// Renders a JSON value for terminal output (used by suite and compare).
pub fn fmt_value(v: f64) -> String {
    let a = v.abs();
    if a == 0.0 {
        "0".into()
    } else if a >= 1000.0 {
        format!("{v:.0}")
    } else if a >= 10.0 {
        format!("{v:.1}")
    } else if a >= 0.1 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}
