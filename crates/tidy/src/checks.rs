//! The repo-specific checks.
//!
//! Every check consumes the [`SourceFile`]/[`Manifest`] models and emits
//! [`Diagnostic`]s in the `file:line: tidy(<check-id>): message` format.
//! Checks that inspect source text only ever look at the lexed *code*
//! view, so nothing fires inside strings or comments.
//!
//! Checks emit *raw* findings without consulting `tidy:allow` comments;
//! the runner filters suppressed findings centrally so it can also tell
//! which suppressions were actually used (a `tidy:allow` that suppresses
//! nothing is itself a finding, `allow-dangling`).

use std::fmt;

use crate::manifest::{self, Manifest};
use crate::source::{FileRole, SourceFile};

/// Identifier of one check family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CheckId {
    /// Crate dependency DAG conformance.
    Layering,
    /// No `unwrap`/`expect`/`panic!`/`todo!` in library code.
    Panic,
    /// No `std::sync` locks where the vendored `parking_lot` is mandated.
    LockStd,
    /// No lock guard held across step/observer/sink callbacks.
    LockSpan,
    /// Metrics calls must sit behind an `is_enabled()` guard.
    TelemetryGuard,
    /// No ambient clocks outside telemetry/bench.
    Time,
    /// Tabs, trailing whitespace, `dbg!`, unreferenced `TODO`s, lint headers.
    Hygiene,
    /// Every `Ordering::*` use matches the field's declared discipline.
    AtomicOrdering,
    /// No guard held across a blocking call (send/recv/join/file I/O).
    GuardBlocking,
    /// Every `tidy:allow` must suppress at least one finding.
    AllowDangling,
}

/// All checks, in reporting order.
pub const ALL_CHECKS: [CheckId; 10] = [
    CheckId::Layering,
    CheckId::Panic,
    CheckId::LockStd,
    CheckId::LockSpan,
    CheckId::TelemetryGuard,
    CheckId::Time,
    CheckId::Hygiene,
    CheckId::AtomicOrdering,
    CheckId::GuardBlocking,
    CheckId::AllowDangling,
];

impl CheckId {
    /// The stable id used on the CLI, in ratchet files, and in
    /// `tidy:allow(...)` comments.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Layering => "layering",
            Self::Panic => "panic",
            Self::LockStd => "lock-std",
            Self::LockSpan => "lock-span",
            Self::TelemetryGuard => "telemetry-guard",
            Self::Time => "time",
            Self::Hygiene => "hygiene",
            Self::AtomicOrdering => "atomic-ordering",
            Self::GuardBlocking => "guard-blocking",
            Self::AllowDangling => "allow-dangling",
        }
    }

    /// Parses a check id as written on the CLI.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        ALL_CHECKS.into_iter().find(|c| c.as_str() == s)
    }

    /// One-line description for `--list-checks`.
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            Self::Layering => "crate dependency DAG matches the documented architecture",
            Self::Panic => "no unwrap()/expect()/panic!/todo! in library code",
            Self::LockStd => "no std::sync::Mutex/RwLock where parking_lot is mandated",
            Self::LockSpan => "no lock guard held across step/observer/sink callbacks",
            Self::TelemetryGuard => "metrics calls sit behind an is_enabled() guard",
            Self::Time => "no Instant::now()/SystemTime outside telemetry and bench",
            Self::Hygiene => {
                "tabs, trailing whitespace, dbg!, TODO refs, lint headers, allow(deprecated)"
            }
            Self::AtomicOrdering => "atomic Ordering uses match the declared per-field discipline",
            Self::GuardBlocking => "no guard held across a blocking call (send/recv/join/file I/O) in the same function",
            Self::AllowDangling => "every tidy:allow suppresses at least one finding",
        }
    }
}

impl fmt::Display for CheckId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding, displayed as `file:line: tidy(<check>): message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The check that fired.
    pub check: CheckId,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: tidy({}): {}",
            self.path, self.line, self.check, self.message
        )
    }
}

/// Internal crates (prefix match for `smartflux`) and their permitted
/// internal dependencies — the documented architecture. Crates absent from
/// this table may depend on every internal crate (leaf consumers).
const LAYERING: [(&str, &[&str]); 13] = [
    ("smartflux-telemetry", &[]),
    ("smartflux-obs", &["smartflux-telemetry"]),
    ("smartflux-datastore", &[]),
    ("smartflux-ml", &[]),
    ("smartflux-tidy", &[]),
    (
        "smartflux-wms",
        &["smartflux-datastore", "smartflux-telemetry"],
    ),
    (
        "smartflux-durability",
        &["smartflux-datastore", "smartflux-telemetry"],
    ),
    (
        "smartflux",
        &[
            "smartflux-datastore",
            "smartflux-wms",
            "smartflux-ml",
            "smartflux-telemetry",
            "smartflux-durability",
        ],
    ),
    (
        "smartflux-net",
        &[
            "smartflux",
            "smartflux-obs",
            "smartflux-telemetry",
            "smartflux-wms",
            "smartflux-datastore",
            "smartflux-durability",
        ],
    ),
    (
        "smartflux-sim",
        &[
            "smartflux",
            "smartflux-wms",
            "smartflux-datastore",
            "smartflux-durability",
            "smartflux-telemetry",
            "smartflux-net",
        ],
    ),
    // The root package, workloads and bench may depend on everything.
    ("smartflux-repro", LEAF),
    ("smartflux-workloads", LEAF),
    ("smartflux-bench", LEAF),
];

const LEAF: &[&str] = &["*"];

fn is_internal(name: &str) -> bool {
    name == "smartflux" || name.starts_with("smartflux-")
}

/// Checks one manifest against the layering table. `vendored` marks
/// `vendor/*` stand-ins, which must never depend on internal crates.
#[must_use]
pub fn check_layering(manifest: &Manifest, vendored: bool) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let path = manifest.path.display().to_string();
    let name = manifest.name.clone().unwrap_or_default();
    for dep in &manifest.deps {
        if !is_internal(&dep.name) {
            continue;
        }
        // Dev-dependencies may reach wider (tests want the full stack);
        // cargo itself rejects the cycles that would actually hurt.
        if dep.dev {
            continue;
        }
        let allowed: Option<&[&str]> = if vendored {
            Some(&[]) // vendor stand-ins: no internal deps at all
        } else {
            LAYERING
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, a)| *a)
                .or(Some(LEAF)) // leaf consumers (workloads, bench, examples)
        };
        let allowed = allowed.unwrap_or(&[]);
        if allowed == LEAF || allowed.contains(&dep.name.as_str()) {
            continue;
        }
        out.push(Diagnostic {
            path: path.clone(),
            line: dep.line,
            check: CheckId::Layering,
            message: format!(
                "`{name}` must not depend on `{}` (documented layering: {})",
                dep.name,
                if allowed.is_empty() {
                    "no internal dependencies".to_owned()
                } else {
                    allowed.join(", ")
                }
            ),
        });
    }
    out
}

const PANIC_TOKENS: [&str; 5] = [".unwrap()", ".expect(", "panic!", "todo!", "unimplemented!"];

/// Library code must not contain panicking shortcuts (`tests`, benches,
/// bins and `#[cfg(test)]` modules are exempt).
#[must_use]
pub fn check_panic(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if file.role != FileRole::Lib {
        return out;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        let ln = idx + 1;
        if file.is_test_line(ln) {
            continue;
        }
        for token in PANIC_TOKENS {
            if let Some(pos) = line.code.find(token) {
                // `debug_assert!`/`assert!` are fine; make sure `panic!`
                // does not match inside a wider identifier.
                if token.ends_with('!')
                    && line.code[..pos]
                        .chars()
                        .next_back()
                        .is_some_and(|c| c.is_alphanumeric() || c == '_')
                {
                    continue;
                }
                out.push(Diagnostic {
                    path: file.path.display().to_string(),
                    line: ln,
                    check: CheckId::Panic,
                    message: format!(
                        "`{token}` in library code — propagate a Result or annotate \
                         `// tidy:allow(panic): <reason>`",
                        token = token.trim_end_matches('(')
                    ),
                });
                break; // one diagnostic per line is enough
            }
        }
    }
    out
}

/// Crates that must use the vendored `parking_lot` instead of `std::sync`
/// locks.
pub const PARKING_LOT_CRATES: [&str; 8] = [
    "smartflux",
    "smartflux-wms",
    "smartflux-datastore",
    "smartflux-telemetry",
    "smartflux-durability",
    "smartflux-obs",
    "smartflux-net",
    "smartflux-sim",
];

/// Flags `std::sync::Mutex`/`RwLock` usage in parking_lot crates.
#[must_use]
pub fn check_lock_std(file: &SourceFile, crate_name: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if !PARKING_LOT_CRATES.contains(&crate_name) || file.role != FileRole::Lib {
        return out;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        let ln = idx + 1;
        if file.is_test_line(ln) {
            continue;
        }
        let code = &line.code;
        let hit = code.contains("std::sync::Mutex")
            || code.contains("std::sync::RwLock")
            || (code.contains("std::sync::") && {
                let after = &code[code.find("std::sync::").unwrap_or(0)..];
                after.contains("Mutex") || after.contains("RwLock")
            });
        if hit {
            out.push(Diagnostic {
                path: file.path.display().to_string(),
                line: ln,
                check: CheckId::LockStd,
                message: format!(
                    "`{crate_name}` must use the vendored `parking_lot` locks, not `std::sync`"
                ),
            });
        }
    }
    out
}

/// Method calls that hand control to user/step/observer/sink code; holding
/// a lock guard across one risks re-entrancy deadlocks and unbounded lock
/// hold times mid-wave.
const CALLBACK_TOKENS: [&str; 12] = [
    ".execute(",
    ".on_write(",
    ".on_op(",
    ".begin_wave(",
    ".end_wave(",
    ".should_trigger(",
    ".step_completed(",
    ".step_skipped(",
    ".step_deferred(",
    ".step_failed(",
    ".record(",
    ".flush(",
];

/// Crates whose lib code is checked for guards spanning callbacks.
pub const LOCK_SPAN_CRATES: [&str; 3] = ["smartflux", "smartflux-wms", "smartflux-datastore"];

fn guard_binding(code: &str) -> Option<String> {
    let trimmed = code.trim_start();
    let rest = trimmed.strip_prefix("let ")?;
    // Only a chain *ending* in the acquire call binds a guard;
    // `let v = m.lock().get(k);` drops its temporary at the semicolon.
    let end = code.trim_end();
    if !(end.ends_with(".lock();") || end.ends_with(".read();") || end.ends_with(".write();")) {
        return None;
    }
    let name_end = rest.find(['=', ':'])?;
    let name = rest[..name_end]
        .trim()
        .trim_start_matches("mut ")
        .trim()
        .to_owned();
    if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return None;
    }
    Some(name)
}

/// Flags lock guards that stay live across a callback invocation: either a
/// `let g = x.lock();` binding whose scope contains a callback call, a
/// `for x in y.lock()...` loop (the guard temporary lives for the whole
/// loop body), or a single-statement chain `x.lock().callback(...)`.
#[must_use]
pub fn check_lock_span(file: &SourceFile, crate_name: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if !LOCK_SPAN_CRATES.contains(&crate_name) || file.role != FileRole::Lib {
        return out;
    }
    let n = file.lines.len();
    let diag = |ln: usize, what: &str| Diagnostic {
        path: file.path.display().to_string(),
        line: ln,
        check: CheckId::LockSpan,
        message: format!(
            "{what} — drop or scope the guard before handing control to \
             step/observer/sink code"
        ),
    };

    for idx in 0..n {
        let ln = idx + 1;
        if file.is_test_line(ln) {
            continue;
        }
        let code = &file.lines[idx].code;

        // Detection 1 + 2: a named guard binding, or a `for` loop whose
        // iterator expression keeps the guard temporary alive for the body.
        let has_lock_call =
            code.contains(".lock()") || code.contains(".read()") || code.contains(".write()");
        let binding = guard_binding(code);
        let for_loop = code.trim_start().starts_with("for ") && has_lock_call;
        if binding.is_some() || for_loop {
            let scope_depth = file.depth_at(ln);
            for j in idx + 1..n {
                let jln = j + 1;
                let d = file.depth_at(jln);
                // A `for` guard temporary dies when the loop body closes; a
                // named binding lives to the end of its enclosing block.
                let live = if for_loop {
                    d > scope_depth
                } else {
                    d >= scope_depth
                };
                if !live {
                    break;
                }
                let jcode = &file.lines[j].code;
                if let Some(name) = &binding {
                    if jcode.contains(&format!("drop({name})")) {
                        break;
                    }
                }
                if CALLBACK_TOKENS.iter().any(|t| jcode.contains(t)) {
                    out.push(diag(
                        jln,
                        if for_loop {
                            "callback invoked while the loop's lock guard temporary is live"
                        } else {
                            "callback invoked while a lock guard is in scope"
                        },
                    ));
                }
            }
        }

        // Detection 3: `.lock().callback(...)` single-statement chains.
        for acquire in [".lock().", ".read().", ".write()."] {
            if let Some(pos) = code.find(acquire) {
                let after = &code[pos + acquire.len() - 1..]; // keep the dot
                if CALLBACK_TOKENS.iter().any(|t| after.starts_with(t)) {
                    out.push(diag(ln, "callback invoked directly on a fresh lock guard"));
                    break;
                }
            }
        }
    }
    out
}

/// Crates whose telemetry call sites must be guard-checked.
pub const TELEMETRY_GUARD_CRATES: [&str; 7] = [
    "smartflux",
    "smartflux-wms",
    "smartflux-datastore",
    "smartflux-durability",
    "smartflux-obs",
    "smartflux-net",
    "smartflux-sim",
];

const METRIC_TOKENS: [&str; 3] = [".counter(", ".histogram(", ".gauge("];

/// Metrics registry calls in hot-path crates must be behind an
/// `is_enabled()` guard (either a wrapping `if`, or an early `return`),
/// so the disabled path costs one atomic load. `Telemetry::span` and
/// `Telemetry::journal` check the flag internally and are exempt.
#[must_use]
pub fn check_telemetry_guard(file: &SourceFile, crate_name: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if !TELEMETRY_GUARD_CRATES.contains(&crate_name) || file.role != FileRole::Lib {
        return out;
    }
    // `if`-blocks whose condition contains is_enabled(): lines strictly
    // inside are guarded. A negated early-return form guards the rest of
    // the enclosing block.
    let mut if_guards: Vec<usize> = Vec::new(); // open-depth stack
    let mut early_guards: Vec<usize> = Vec::new(); // active-while depth >= d
    let mut pending_if: Option<(usize, bool)> = None; // (depth, negated)
    let mut negated_block: Option<(usize, bool)> = None; // (depth, saw return)

    for (idx, line) in file.lines.iter().enumerate() {
        let ln = idx + 1;
        let code = &line.code;
        let depth = file.depth_at(ln);

        early_guards.retain(|&d| depth >= d);
        if_guards.retain(|&d| depth > d);

        // A negated early-return block protects the remainder of its
        // enclosing scope once control is back at the `if`'s depth.
        if let Some((d, true)) = negated_block {
            if depth == d {
                early_guards.push(d);
                negated_block = None;
            }
        }

        // Treat a same-line `is_enabled()` as a guard (single-line bodies).
        let guarded =
            !if_guards.is_empty() || !early_guards.is_empty() || code.contains("is_enabled()");
        if !file.is_test_line(ln) && !guarded {
            for token in METRIC_TOKENS {
                if code.contains(token) {
                    out.push(Diagnostic {
                        path: file.path.display().to_string(),
                        line: ln,
                        check: CheckId::TelemetryGuard,
                        message: format!(
                            "`{}` call outside an `is_enabled()` guard — the disabled \
                             path must cost one atomic load",
                            token.trim_start_matches('.').trim_end_matches('(')
                        ),
                    });
                    break;
                }
            }
        }

        // Track guard structure *after* checking the current line: the
        // `if ...is_enabled()` line itself is not guarded, its body is.
        if code.trim_start().starts_with("if ") && code.contains("is_enabled()") {
            let bang = code.find('!');
            let en = code.find("is_enabled()").unwrap_or(0);
            let negated = bang.is_some_and(|b| b < en);
            pending_if = Some((depth, negated));
        }
        if code.contains('{') {
            if let Some((d, negated)) = pending_if.take() {
                if negated {
                    negated_block = Some((d, false));
                } else {
                    if_guards.push(d);
                }
            }
        }
        if let Some((_, saw_return)) = &mut negated_block {
            if code.contains("return") {
                *saw_return = true;
            }
        }
    }
    out
}

/// Crates allowed to read ambient clocks freely.
pub const CLOCK_CRATES: [&str; 2] = ["smartflux-telemetry", "smartflux-bench"];

/// Replayed waves must be deterministic: ambient clock reads are confined
/// to the telemetry crate, the bench harness, and explicitly annotated
/// measurement sites.
#[must_use]
pub fn check_time(file: &SourceFile, crate_name: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if CLOCK_CRATES.contains(&crate_name) || file.role != FileRole::Lib {
        return out;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        let ln = idx + 1;
        if file.is_test_line(ln) {
            continue;
        }
        for token in ["Instant::now()", "SystemTime::now()", "SystemTime"] {
            if line.code.contains(token) {
                out.push(Diagnostic {
                    path: file.path.display().to_string(),
                    line: ln,
                    check: CheckId::Time,
                    message: format!(
                        "`{token}` outside telemetry/bench — wave replay must be \
                         deterministic; annotate measurement sites with \
                         `// tidy:allow(time): <reason>`"
                    ),
                });
                break;
            }
        }
    }
    out
}

/// Crates whose `src/lib.rs` must carry `#![warn(missing_docs)]` (every
/// internal crate except the bench harness opts in).
pub const MISSING_DOCS_OPT_IN: [&str; 11] = [
    "smartflux",
    "smartflux-datastore",
    "smartflux-wms",
    "smartflux-ml",
    "smartflux-telemetry",
    "smartflux-workloads",
    "smartflux-tidy",
    "smartflux-durability",
    "smartflux-obs",
    "smartflux-net",
    "smartflux-sim",
];

/// Whether `file` is in a crate's `frozen` module (`src/frozen.rs` or
/// `src/frozen/`), home of the deprecated items kept for `benchmark/`.
fn in_frozen_module(file: &SourceFile) -> bool {
    let path = format!("/{}", file.path.to_string_lossy().replace('\\', "/"));
    path.ends_with("/src/frozen.rs") || path.contains("/src/frozen/")
}

/// Whether a lint attribute opening on line `idx` — `allow(..)` or
/// `expect(..)` — names `deprecated`, or the `warnings` group that holds
/// it. A list that rustfmt split across lines is joined up to its `)`.
fn allows_deprecated(file: &SourceFile, idx: usize) -> bool {
    ["allow(", "expect("].into_iter().any(|opener| {
        file.lines[idx].code.split(opener).skip(1).any(|rest| {
            let mut list = rest.to_owned();
            for line in &file.lines[idx + 1..] {
                if list.contains(')') {
                    break;
                }
                list.push_str(&line.code);
            }
            let list = list.split(')').next().unwrap_or_default();
            list.split(',').any(manifest::silences_deprecated)
        })
    })
}

/// Tabs, trailing whitespace, `dbg!`, `TODO`/`FIXME` without an issue
/// reference, malformed `tidy:allow` comments, missing lint headers, and
/// `allow(deprecated)` in library or binary code outside a `frozen`
/// module: the deprecated items are kept only for `benchmark/`, and the
/// compiler rejects every production caller unless someone allows it.
/// `allow(warnings)` silences `deprecated` too, so it counts the same.
#[must_use]
pub fn check_hygiene(file: &SourceFile, crate_name: &str, is_lib_root: bool) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let path = file.path.display().to_string();
    let mut push = |line: usize, message: String| {
        out.push(Diagnostic {
            path: path.clone(),
            line,
            check: CheckId::Hygiene,
            message,
        });
    };

    let fenced = matches!(file.role, FileRole::Lib | FileRole::Bin) && !in_frozen_module(file);
    for (idx, line) in file.lines.iter().enumerate() {
        let ln = idx + 1;
        if fenced && !file.is_test_line(ln) && allows_deprecated(file, idx) {
            push(
                ln,
                "`allow(deprecated)` or `allow(warnings)` outside a `frozen` module — \
                 deprecated items are kept only for benchmark/, and production code must \
                 not call them"
                    .into(),
            );
        }
        if line.raw.contains('\t') {
            push(ln, "tab character (use spaces)".into());
        }
        if line.raw.ends_with(' ') || line.raw.ends_with('\t') {
            push(ln, "trailing whitespace".into());
        }
        if line.code.contains("dbg!(") {
            push(ln, "`dbg!` left in source".into());
        }
        for marker in ["TODO", "FIXME"] {
            if let Some(pos) = line.comment.find(marker) {
                let after = &line.comment[pos + marker.len()..];
                // A backticked mention (`TODO`) documents the marker rather
                // than leaving work behind; only bare markers count.
                let code_font = line.comment[..pos].ends_with('`');
                if !after.starts_with("(#") && !code_font {
                    push(
                        ln,
                        format!("`{marker}` without an issue reference (use `{marker}(#NNN)`)"),
                    );
                }
            }
        }
    }
    for &ln in &file.malformed_allows {
        push(
            ln,
            "malformed `tidy:allow` — expected `tidy:allow(<check-id>): <reason>`".into(),
        );
    }
    if is_lib_root && is_internal(crate_name) {
        let has = |marker: &str| file.lines.iter().any(|l| l.code.contains(marker));
        if !has("#![forbid(unsafe_code)]") {
            push(
                1,
                "crate root must declare `#![forbid(unsafe_code)]`".into(),
            );
        }
        if MISSING_DOCS_OPT_IN.contains(&crate_name) && !has("#![warn(missing_docs)]") {
            push(
                1,
                format!(
                    "`{crate_name}` opts into `#![warn(missing_docs)]` but the header is missing"
                ),
            );
        }
    }
    out
}

/// A `Cargo.toml` that sets the rustc lint `deprecated`, or the
/// `warnings` group, to `allow` silences the `frozen` fence for a whole
/// crate (or workspace), so it is a `hygiene` finding as well.
#[must_use]
pub fn check_lint_levels(manifest: &Manifest) -> Vec<Diagnostic> {
    let path = manifest.path.display().to_string();
    manifest
        .allows_deprecated
        .iter()
        .map(|&line| Diagnostic {
            path: path.clone(),
            line,
            check: CheckId::Hygiene,
            message: "a `[lints.rust]` entry allows `deprecated` or `warnings`, which \
                      silences the `frozen` fence crate-wide"
                .into(),
        })
        .collect()
}
