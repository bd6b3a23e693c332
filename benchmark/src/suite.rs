//! The one command: every workload, R fresh-process repetitions each, the
//! per-layer pass, the correctness gate, every metric printed by name, and
//! `result.json`.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};

use crate::common::{cpu_model, nproc, BenchResult, Context};
use crate::fmt_value;
use crate::json::{obj, Json};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles, spread};
use crate::workloads::{Workload, WORKLOADS};

/// Version of the `result.json` layout.
pub const SCHEMA: u64 = 1;

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub reps: usize,
    /// Correctness gate only: one repetition, one set-up, no per-layer
    /// pass, workloads two at a time (timings mean nothing in this mode).
    pub quick: bool,
    pub out: PathBuf,
    /// Restricts the suite to one workload.
    pub only: Option<String>,
}

/// One child run: its parsed result line and detail file.
struct Rep {
    line: Json,
    detail: Json,
    ok: bool,
}

struct Job {
    workload: &'static Workload,
    trace: bool,
    detail_path: PathBuf,
    child: Child,
}

fn spawn(a: &SuiteArgs, w: &'static Workload, trace: bool, index: usize) -> BenchResult<Job> {
    let exe = std::env::current_exe().context("locate the wavebench executable")?;
    let label = if trace {
        "layers".to_owned()
    } else {
        format!("rep{index}")
    };
    let detail_path = a.out.join(format!("{label}-{}.json", w.name));
    let mut command = Command::new(exe);
    command
        .arg("run")
        .args(["--workload", w.name])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--detail")
        .arg(&detail_path)
        .arg("--out")
        .arg(&a.out)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if a.quick {
        command.arg("--quick");
    }
    let child = command.spawn().context("start a repetition")?;
    Ok(Job {
        workload: w,
        trace,
        detail_path,
        child,
    })
}

fn finish(job: Job) -> BenchResult<Rep> {
    let output = job
        .child
        .wait_with_output()
        .context("wait for a repetition")?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .next_back()
        .and_then(|l| Json::parse(l).ok())
        .unwrap_or(Json::Null);
    let detail = std::fs::read_to_string(&job.detail_path)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .unwrap_or(Json::Null);
    let _ = std::fs::remove_file(&job.detail_path);
    let ok = output.status.success()
        && line.get("correct").and_then(Json::as_bool) == Some(true)
        && line.get("failed").and_then(Json::as_f64) == Some(0.0);
    if !ok {
        eprintln!(
            "wavebench: {} ({}) did not come back correct (exit {:?})",
            job.workload.name,
            if job.trace {
                "per-layer pass"
            } else {
                "repetition"
            },
            output.status.code()
        );
    }
    Ok(Rep { line, detail, ok })
}

/// Runs `jobs` at most `width` at a time, results in input order.
fn run_all(
    a: &SuiteArgs,
    jobs: &[(&'static Workload, bool, usize)],
    width: usize,
) -> BenchResult<Vec<Rep>> {
    let mut results: Vec<Option<Rep>> = jobs.iter().map(|_| None).collect();
    let mut running: Vec<(usize, Job)> = Vec::new();
    let mut next = 0;
    while next < jobs.len() || !running.is_empty() {
        while running.len() < width.max(1) && next < jobs.len() {
            let (w, trace, i) = jobs[next];
            running.push((next, spawn(a, w, trace, i)?));
            next += 1;
        }
        let done = running
            .iter_mut()
            .position(|(_, job)| !matches!(job.child.try_wait(), Ok(None)));
        match done {
            Some(at) => {
                let (index, job) = running.swap_remove(at);
                results[index] = Some(finish(job)?);
            }
            None => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    }
    Ok(results.into_iter().flatten().collect())
}

fn metric_value(line: &Json, name: &str) -> Option<f64> {
    line.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn metric_n(detail: &Json, name: &str) -> u64 {
    detail
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("n"))
        .and_then(Json::as_f64)
        .map_or(0, |n| n as u64)
}

/// Commit the working tree is at, read from `.git` without running git
/// ("unknown" in an exported checkout).
fn git_rev(repo: &Path) -> String {
    let git = repo.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn exact_of(rep: &Rep) -> String {
    rep.detail
        .get("exact")
        .map_or_else(String::new, Json::compact)
}

fn exact_field<'a>(rep: &'a Rep, key: &str) -> Option<&'a Json> {
    rep.detail.get("exact")?.get(key)
}

/// The cross-repetition and cross-workload part of the correctness gate
/// (each run has already checked itself against its twin and shadow).
fn gate(per_workload: &[(&'static Workload, Vec<Rep>, Option<Rep>)]) -> Vec<String> {
    let mut problems = Vec::new();
    for (w, reps, layers) in per_workload {
        if reps.iter().any(|r| !r.ok) {
            problems.push(format!("{}: a repetition failed its own checks", w.name));
        }
        if layers.as_ref().is_some_and(|l| !l.ok) {
            problems.push(format!("{}: the per-layer pass failed", w.name));
        }
        // An open-loop repetition whose generators fell behind describes
        // the backlog, not the system: no latency is taken from it.
        if reps
            .iter()
            .any(|r| r.detail.get("on_schedule").and_then(Json::as_bool) == Some(false))
        {
            problems.push(format!(
                "{}: a repetition's open-loop generators could not keep their schedule",
                w.name
            ));
        }
        // Same seed, same inputs: trails, store checksums and every exact
        // count must repeat bit for bit.
        if let Some(first) = reps.first() {
            if reps.iter().any(|r| exact_of(r) != exact_of(first)) {
                problems.push(format!(
                    "{}: exact counts or checksums differ between repetitions",
                    w.name
                ));
            }
            if exact_field(first, "audited_waves").and_then(Json::as_f64)
                != Some(w.audit_waves as f64)
            {
                problems.push(format!("{}: the audit prefix was not completed", w.name));
            }
        }
    }
    // `lrb_served` is `lrb` behind the plane: same decisions, same values
    // in the store, and a clock that differs by exactly the ingest writes.
    let first_rep = |name: &str| {
        per_workload
            .iter()
            .find(|(w, _, _)| w.name == name)
            .and_then(|(w, reps, _)| reps.first().map(|r| (*w, r)))
    };
    if let (Some((lrb, a)), Some((served, b))) = (first_rep("lrb"), first_rep("lrb_served")) {
        for key in [
            "trail",
            "trail_rows",
            "store_values",
            "store_cells",
            "managed_skipped",
        ] {
            if exact_field(a, key) != exact_field(b, key) {
                problems.push(format!("lrb_served: `{key}` differs from lrb's"));
            }
        }
        let clock = |r: &Rep| exact_field(r, "store_clock").and_then(Json::as_f64);
        let ingest = (served.writes_per_wave as u64
            * (served.training_waves as u64 + served.audit_waves)) as f64;
        if lrb.audit_waves != served.audit_waves
            || clock(a).zip(clock(b)).is_none_or(|(a, b)| b - ingest != a)
        {
            problems.push("lrb_served: store clock minus ingest writes differs from lrb's".into());
        }
    }
    problems
}

pub fn cmd_suite(a: &SuiteArgs) -> Result<ExitCode, String> {
    std::fs::create_dir_all(&a.out).context("create output directory")?;
    let selected: Vec<&'static Workload> = WORKLOADS
        .iter()
        .filter(|w| a.only.as_deref().is_none_or(|only| only == w.name))
        .collect();
    if selected.is_empty() {
        return Err("--only names no workload".into());
    }
    let mut jobs = Vec::new();
    for w in &selected {
        for i in 0..a.reps {
            jobs.push((*w, false, i));
        }
        if !a.quick {
            jobs.push((*w, true, 0));
        }
    }
    eprintln!(
        "wavebench: {} workloads x {} repetitions of {} s{}, seed {}",
        selected.len(),
        a.reps,
        a.seconds,
        if a.quick {
            " (quick: gate only)"
        } else {
            " + per-layer pass"
        },
        a.seed
    );
    let width = if a.quick { nproc().min(2) } else { 1 };
    let mut results = run_all(a, &jobs, width)?.into_iter();
    let mut per_workload = Vec::new();
    for w in &selected {
        let reps: Vec<Rep> = results.by_ref().take(a.reps).collect();
        let layers = if a.quick { None } else { results.next() };
        per_workload.push((*w, reps, layers));
    }
    let problems = gate(&per_workload);

    let mut workloads_json = Vec::new();
    for (w, reps, layers) in &per_workload {
        println!("\n== {} ==  {}", w.name, w.why);
        let mut e2e = Vec::new();
        for def in &END_TO_END {
            let values: Vec<f64> = reps
                .iter()
                .filter_map(|r| metric_value(&r.line, def.name))
                .collect();
            let (q1, q3) = quartiles(&values);
            let samples = reps.first().map_or(0, |r| metric_n(&r.detail, def.name));
            println!(
                "  {:<34} {:>12} {:<6} [q1 {}, q3 {}]  reps {}  samples/rep {}",
                def.name,
                fmt_value(median(&values)),
                def.unit,
                fmt_value(q1),
                fmt_value(q3),
                values.len(),
                samples
            );
            e2e.push((
                def.name.to_owned(),
                obj([
                    ("unit", def.unit.into()),
                    ("better", def.better.as_str().into()),
                    ("bound", def.bound.into()),
                    ("median", median(&values).into()),
                    ("q1", q1.into()),
                    ("q3", q3.into()),
                    ("spread", spread(&values).into()),
                    ("reps", values.len().into()),
                    ("samples_per_rep", samples.into()),
                    ("values", values.into()),
                ]),
            ));
        }
        let attempted: f64 = reps
            .iter()
            .filter_map(|r| r.line.get("attempted").and_then(Json::as_f64))
            .sum();
        let failed: f64 = reps
            .iter()
            .filter_map(|r| r.line.get("failed").and_then(Json::as_f64))
            .sum();
        println!(
            "  {:<34} {:>12} {:<6} ({failed} of {attempted} requests)",
            "failed_ratio",
            fmt_value(if attempted > 0.0 {
                failed / attempted
            } else {
                0.0
            }),
            "ratio"
        );
        if let Some(layers) = layers {
            let mut idle = Vec::new();
            for def in &PER_LAYER {
                let n = metric_n(&layers.detail, def.name);
                match metric_value(&layers.line, def.name) {
                    Some(value) if n > 0 => println!(
                        "  {:<34} {:>12} {:<6} n {n}",
                        def.name,
                        fmt_value(value),
                        def.unit
                    ),
                    _ => idle.push(def.name),
                }
            }
            if !idle.is_empty() {
                println!("  (layer does not run here, 0: {})", idle.join(" "));
            }
        }
        workloads_json.push((
            w.name.to_owned(),
            obj([
                ("why", w.why.into()),
                ("attempted", attempted.into()),
                ("failed", failed.into()),
                ("end_to_end", Json::Obj(e2e)),
                (
                    "per_layer",
                    layers
                        .as_ref()
                        .and_then(|l| l.detail.get("metrics").cloned())
                        .unwrap_or(Json::Null),
                ),
                (
                    "exact",
                    reps.first()
                        .and_then(|r| r.detail.get("exact").cloned())
                        .unwrap_or(Json::Null),
                ),
                (
                    "repetitions",
                    Json::Arr(reps.iter().map(|r| r.detail.clone()).collect()),
                ),
                (
                    "layers_pass",
                    layers.as_ref().map_or(Json::Null, |l| l.detail.clone()),
                ),
            ]),
        ));
    }

    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let result = obj([
        ("schema", SCHEMA.into()),
        ("git_rev", git_rev(&repo).into()),
        ("seed", a.seed.into()),
        ("seconds", a.seconds.into()),
        ("repetitions", a.reps.into()),
        ("quick", a.quick.into()),
        ("nproc", nproc().into()),
        ("cpu", cpu_model().into()),
        (
            "gate",
            obj([
                ("passed", problems.is_empty().into()),
                ("problems", problems.clone().into()),
            ]),
        ),
        ("workloads", Json::Obj(workloads_json)),
    ]);
    let path = a.out.join("result.json");
    std::fs::write(&path, result.pretty()).context("write result.json")?;
    println!("\nwrote {}", path.display());
    if problems.is_empty() {
        println!("correctness gate: passed");
        Ok(ExitCode::SUCCESS)
    } else {
        for p in &problems {
            println!("correctness gate: FAILED: {p}");
        }
        Ok(ExitCode::from(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn git_rev_reads_detached_and_symbolic_heads() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out/tmp")
            .join(format!("gitrev-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join(".git/refs/heads")).unwrap();
        assert_eq!(git_rev(&dir.join("nowhere")), "unknown");
        std::fs::write(dir.join(".git/HEAD"), "abc123\n").unwrap();
        assert_eq!(git_rev(&dir), "abc123");
        std::fs::write(dir.join(".git/HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(
            dir.join(".git/packed-refs"),
            "# pack\nfeed42 refs/heads/main\n",
        )
        .unwrap();
        assert_eq!(git_rev(&dir), "feed42");
        std::fs::write(dir.join(".git/refs/heads/main"), "def456\n").unwrap();
        assert_eq!(git_rev(&dir), "def456");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
