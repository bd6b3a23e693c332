//! CLI entry point: `cargo run -p smartflux-tidy -- --workspace`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use smartflux_tidy::checks::{CheckId, ALL_CHECKS};
use smartflux_tidy::ratchet;
use smartflux_tidy::report;
use smartflux_tidy::runner;

const USAGE: &str = "\
smartflux-tidy: repo-specific static analysis for the SmartFlux workspace

USAGE:
    cargo run -p smartflux-tidy -- --workspace [OPTIONS]

OPTIONS:
    --workspace          check every workspace member (required to run)
    --root <dir>         workspace root (default: found from the cwd)
    --only <check-id>    run one check family (repeatable)
    --ratchet <file>     compare counts against a committed budget file;
                         counts above budget fail, counts below budget
                         fail too until the file is tightened
    --write-ratchet      rewrite the --ratchet file with the live counts
    --json <file>        also write a machine-readable report (checks run,
                         per-crate counts, findings)
    --list-checks        print every check id and exit
    --help               print this help
";

struct Options {
    workspace: bool,
    root: Option<PathBuf>,
    only: Vec<CheckId>,
    ratchet: Option<PathBuf>,
    write_ratchet: bool,
    json: Option<PathBuf>,
    list_checks: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workspace: false,
        root: None,
        only: Vec::new(),
        ratchet: None,
        write_ratchet: false,
        json: None,
        list_checks: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => opts.workspace = true,
            "--root" => {
                let v = it.next().ok_or("--root needs a directory")?;
                opts.root = Some(PathBuf::from(v));
            }
            "--only" => {
                let v = it.next().ok_or("--only needs a check id")?;
                let id = CheckId::parse(v)
                    .ok_or_else(|| format!("unknown check `{v}` (see --list-checks)"))?;
                opts.only.push(id);
            }
            "--ratchet" => {
                let v = it.next().ok_or("--ratchet needs a file path")?;
                opts.ratchet = Some(PathBuf::from(v));
            }
            "--write-ratchet" => opts.write_ratchet = true,
            "--json" => {
                let v = it.next().ok_or("--json needs a file path")?;
                opts.json = Some(PathBuf::from(v));
            }
            "--list-checks" => opts.list_checks = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if opts.list_checks {
        for check in ALL_CHECKS {
            println!("{:<16} {}", check.as_str(), check.describe());
        }
        return ExitCode::SUCCESS;
    }
    if !opts.workspace {
        eprintln!("error: nothing to do — pass --workspace (or --list-checks)");
        return ExitCode::from(2);
    }

    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(opts: &Options) -> Result<bool, String> {
    let start = std::time::Instant::now();
    let root = match &opts.root {
        Some(r) => r.clone(),
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            runner::find_workspace_root(&cwd)?
        }
    };
    let selected: Vec<CheckId> = if opts.only.is_empty() {
        ALL_CHECKS.to_vec()
    } else {
        opts.only.clone()
    };

    let units = runner::load_workspace(&root)?;
    let diagnostics = runner::run_checks(&units, &selected);
    let live = runner::count_by_crate(&units, &diagnostics);

    let mut ok = true;
    if let Some(ratchet_path) = &opts.ratchet {
        if opts.write_ratchet {
            std::fs::write(ratchet_path, ratchet::to_json(&live))
                .map_err(|e| format!("{}: {e}", ratchet_path.display()))?;
            println!(
                "tidy: wrote {} ({} live finding(s))",
                ratchet_path.display(),
                diagnostics.len()
            );
        } else {
            let text = std::fs::read_to_string(ratchet_path)
                .map_err(|e| format!("{}: {e}", ratchet_path.display()))?;
            let budget = ratchet::from_json(&text)
                .map_err(|e| format!("{}: {e}", ratchet_path.display()))?;
            let report = runner::compare_ratchet(&live, &budget, &selected);
            for (check, krate, l, b) in &report.over {
                // Print the offending diagnostics for over-budget cells.
                for d in diagnostics
                    .iter()
                    .filter(|d| d.check.as_str() == check)
                    .filter(|d| crate_of(&units, &d.path).as_deref() == Some(krate))
                {
                    println!("{d}");
                }
                eprintln!(
                    "tidy({check}): {krate}: {l} finding(s) exceed the ratchet budget of {b}"
                );
            }
            for (check, krate, l, b) in &report.stale {
                eprintln!(
                    "tidy({check}): {krate}: count improved to {l} but the ratchet still \
                     says {b} — run `cargo run -p smartflux-tidy -- --workspace --ratchet {p} \
                     --write-ratchet` and commit the tightened file",
                    p = ratchet_path.display()
                );
            }
            ok = report.is_clean();
        }
    } else {
        for d in &diagnostics {
            println!("{d}");
        }
        ok = diagnostics.is_empty();
    }

    if let Some(json_path) = &opts.json {
        let doc = report::render(
            &selected,
            units.iter().map(|u| u.files.len()).sum::<usize>(),
            units.len(),
            start.elapsed().as_millis(),
            &diagnostics,
            &live,
        );
        std::fs::write(json_path, doc).map_err(|e| format!("{}: {e}", json_path.display()))?;
        eprintln!("tidy: wrote report to {}", json_path.display());
    }

    eprintln!(
        "tidy: {} file(s) across {} crate(s), {} check(s), {} live finding(s), {:?}",
        units.iter().map(|u| u.files.len()).sum::<usize>(),
        units.len(),
        selected.len(),
        diagnostics.len(),
        start.elapsed()
    );
    Ok(ok)
}

/// The crate owning a workspace-relative diagnostic path.
fn crate_of(units: &[runner::CrateUnit], path: &str) -> Option<String> {
    let mut best: Option<(usize, String)> = None;
    for u in units {
        let prefix = u
            .manifest
            .path
            .parent()
            .map(|p| p.display().to_string())
            .unwrap_or_default();
        if prefix.is_empty() || path.starts_with(prefix.as_str()) {
            let len = prefix.len();
            if best.as_ref().is_none_or(|(l, _)| len > *l) {
                best = Some((len, u.name.clone()));
            }
        }
    }
    best.map(|(_, n)| n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_refuses_the_deleted_lock_order_check() {
        let args = ["--workspace", "--only", "lock-order"].map(String::from);
        let err = parse_args(&args)
            .err()
            .expect("lock-order is no longer a check");
        assert_eq!(err, "unknown check `lock-order` (see --list-checks)");
    }
}
