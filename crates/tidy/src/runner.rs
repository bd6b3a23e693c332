//! Workspace discovery and check orchestration.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

use crate::checks::{self, CheckId, Diagnostic};
use crate::concurrency::{self, atomics, blocking};
use crate::manifest::{self, Manifest};
use crate::ratchet::Counts;
use crate::source::{FileRole, SourceFile};

/// One workspace member prepared for checking.
#[derive(Debug)]
pub struct CrateUnit {
    /// `package.name` from the manifest.
    pub name: String,
    /// Parsed manifest.
    pub manifest: Manifest,
    /// Whether the crate lives under `vendor/`.
    pub vendored: bool,
    /// Lexed source files, with workspace-relative diagnostic paths.
    pub files: Vec<SourceFile>,
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Result<PathBuf, String> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = fs::read_to_string(&manifest).map_err(|e| e.to_string())?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace Cargo.toml found above the current directory".into());
        }
    }
}

fn rs_files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rs_files_under(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn load_crate(root: &Path, dir: &Path, vendored: bool) -> Result<Option<CrateUnit>, String> {
    let manifest_path = dir.join("Cargo.toml");
    if !manifest_path.is_file() {
        return Ok(None);
    }
    let text = fs::read_to_string(&manifest_path).map_err(|e| e.to_string())?;
    let rel_manifest = manifest_path
        .strip_prefix(root)
        .unwrap_or(&manifest_path)
        .to_path_buf();
    let manifest = manifest::parse(rel_manifest, &text);
    let Some(name) = manifest.name.clone() else {
        return Ok(None);
    };

    let mut files = Vec::new();
    let mut rs = Vec::new();
    for sub in ["src", "tests", "benches", "examples"] {
        rs_files_under(&dir.join(sub), &mut rs);
    }
    for path in rs {
        let source = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let rel_crate = path
            .strip_prefix(dir)
            .unwrap_or(&path)
            .display()
            .to_string();
        let role = FileRole::from_relative_path(&rel_crate);
        let rel_ws = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        files.push(SourceFile::parse(rel_ws, role, &source));
    }
    Ok(Some(CrateUnit {
        name,
        manifest,
        vendored,
        files,
    }))
}

/// Loads every workspace member: `crates/*`, `vendor/*`, and the root
/// package (whose sources are the top-level `tests/` and `examples/`).
pub fn load_workspace(root: &Path) -> Result<Vec<CrateUnit>, String> {
    let mut units = Vec::new();
    for (sub, vendored) in [("crates", false), ("vendor", true)] {
        let dir = root.join(sub);
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        let mut dirs: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for d in dirs {
            if let Some(unit) = load_crate(root, &d, vendored)? {
                units.push(unit);
            }
        }
    }
    if let Some(unit) = load_crate(root, root, false)? {
        units.push(unit);
    }
    Ok(units)
}

/// Runs `selected` checks over `units`, returning live (non-allowed)
/// diagnostics sorted by path and line.
///
/// Checks emit *raw* diagnostics; suppression (`tidy:allow`) is applied
/// centrally here, which is what lets the `allow-dangling` check see
/// which suppressions actually fired: an allow whose `(path, line,
/// check)` never matched a raw diagnostic is dead weight and gets
/// reported itself.
#[must_use]
pub fn run_checks(units: &[CrateUnit], selected: &[CheckId]) -> Vec<Diagnostic> {
    let mut raw = Vec::new();
    for unit in units {
        if selected.contains(&CheckId::Layering) {
            raw.extend(checks::check_layering(&unit.manifest, unit.vendored));
        }
        if unit.vendored {
            // Vendor stand-ins mirror external crates; only layering (and
            // nothing source-level) applies to them.
            continue;
        }
        if selected.contains(&CheckId::Hygiene) {
            raw.extend(checks::check_lint_levels(&unit.manifest));
        }
        for file in &unit.files {
            let is_lib_root = file.path.ends_with("src/lib.rs");
            for &check in selected {
                let diags = match check {
                    CheckId::Layering
                    | CheckId::AtomicOrdering
                    | CheckId::GuardBlocking
                    | CheckId::AllowDangling => continue,
                    CheckId::Panic => checks::check_panic(file),
                    CheckId::LockStd => checks::check_lock_std(file, &unit.name),
                    CheckId::LockSpan => checks::check_lock_span(file, &unit.name),
                    CheckId::TelemetryGuard => checks::check_telemetry_guard(file, &unit.name),
                    CheckId::Time => checks::check_time(file, &unit.name),
                    CheckId::Hygiene => checks::check_hygiene(file, &unit.name, is_lib_root),
                };
                raw.extend(diags);
            }
        }
        // Crate-level concurrency passes, on the analyzed subset only.
        if concurrency::CONCURRENCY_CRATES.contains(&unit.name.as_str()) {
            if selected.contains(&CheckId::AtomicOrdering) {
                raw.extend(atomics::check(&unit.name, &unit.files));
            }
            if selected.contains(&CheckId::GuardBlocking) {
                raw.extend(blocking::check(&unit.files));
            }
        }
    }

    // Central suppression: filter allowed diagnostics, remembering which
    // allows actually fired.
    let mut file_map: HashMap<String, &SourceFile> = HashMap::new();
    for unit in units.iter().filter(|u| !u.vendored) {
        for file in &unit.files {
            file_map.insert(file.path.display().to_string(), file);
        }
    }
    let mut used: HashSet<(String, usize, String)> = HashSet::new();
    let mut live = Vec::new();
    for d in raw {
        let allowed = file_map
            .get(&d.path)
            .is_some_and(|f| f.is_allowed(d.line, d.check.as_str()));
        if allowed {
            used.insert((d.path, d.line, d.check.as_str().to_owned()));
        } else {
            live.push(d);
        }
    }

    // Dangling-suppression scan: every allow for a *selected* check must
    // have filtered at least one raw diagnostic this run.
    if selected.contains(&CheckId::AllowDangling) {
        for unit in units.iter().filter(|u| !u.vendored) {
            for file in &unit.files {
                let path = file.path.display().to_string();
                for (line, id) in file.allow_entries() {
                    let diag = match CheckId::parse(id) {
                        None => Some(format!(
                            "`tidy:allow({id})` names an unknown check id — see --list-checks"
                        )),
                        Some(CheckId::AllowDangling) => None,
                        Some(check) if !selected.contains(&check) => None,
                        Some(_) => {
                            if used.contains(&(path.clone(), line, id.to_owned())) {
                                None
                            } else {
                                Some(format!(
                                    "`tidy:allow({id})` suppresses nothing — the check no \
                                     longer fires here; remove the stale suppression"
                                ))
                            }
                        }
                    };
                    if let Some(message) = diag {
                        if file.is_allowed(line, CheckId::AllowDangling.as_str()) {
                            continue;
                        }
                        live.push(Diagnostic {
                            path: path.clone(),
                            line,
                            check: CheckId::AllowDangling,
                            message,
                        });
                    }
                }
            }
        }
    }

    live.sort_by(|a, b| {
        (&a.path, a.line, a.check.as_str(), &a.message).cmp(&(
            &b.path,
            b.line,
            b.check.as_str(),
            &b.message,
        ))
    });
    live.dedup();
    live
}

/// Buckets diagnostics into ratchet counts. Needs the crate of each
/// diagnostic, so it re-derives it from the path prefix.
#[must_use]
pub fn count_by_crate(units: &[CrateUnit], diags: &[Diagnostic]) -> Counts {
    // Map each crate's path prefix to its name; the root package matches
    // everything else.
    let mut prefixes: Vec<(String, String)> = units
        .iter()
        .map(|u| {
            let prefix = u
                .manifest
                .path
                .parent()
                .map(|p| p.display().to_string())
                .unwrap_or_default();
            (prefix, u.name.clone())
        })
        .collect();
    // Longest prefix first so `crates/core` wins over the root's "".
    prefixes.sort_by_key(|(p, _)| std::cmp::Reverse(p.len()));

    let mut counts = Counts::new();
    for d in diags {
        let krate = prefixes
            .iter()
            .find(|(p, _)| p.is_empty() || d.path.starts_with(p.as_str()))
            .map_or_else(|| "<unknown>".to_owned(), |(_, n)| n.clone());
        *counts
            .entry(d.check.as_str().to_owned())
            .or_default()
            .entry(krate)
            .or_insert(0) += 1;
    }
    counts
}

/// The outcome of comparing live counts against a ratchet file.
#[derive(Debug, Default)]
pub struct RatchetReport {
    /// Cells whose live count exceeds the budget: `(check, crate, live,
    /// budget)` — these fail the run and their diagnostics are printed.
    pub over: Vec<(String, String, usize, usize)>,
    /// Cells whose live count undercuts the budget: the ratchet file is
    /// stale and must be tightened (also a failure, so improvements get
    /// committed).
    pub stale: Vec<(String, String, usize, usize)>,
}

impl RatchetReport {
    /// Whether the comparison passed.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.over.is_empty() && self.stale.is_empty()
    }
}

/// Compares live counts against the committed budget, for the selected
/// checks only.
#[must_use]
pub fn compare_ratchet(live: &Counts, budget: &Counts, selected: &[CheckId]) -> RatchetReport {
    let selected_ids: Vec<&str> = selected.iter().map(|c| c.as_str()).collect();
    let mut report = RatchetReport::default();
    let empty = BTreeMap::new();
    for &check in &selected_ids {
        let live_cells = live.get(check).unwrap_or(&empty);
        let budget_cells = budget.get(check).unwrap_or(&empty);
        let crates: std::collections::BTreeSet<&String> =
            live_cells.keys().chain(budget_cells.keys()).collect();
        for krate in crates {
            let l = live_cells.get(krate).copied().unwrap_or(0);
            let b = budget_cells.get(krate).copied().unwrap_or(0);
            if l > b {
                report.over.push((check.to_owned(), krate.clone(), l, b));
            } else if l < b {
                report.stale.push((check.to_owned(), krate.clone(), l, b));
            }
        }
    }
    report
}
