//! Fixture-driven tests for every tidy check: a real violation fires at
//! the right line, the same token inside a string does not, a
//! `tidy:allow` comment suppresses it, and the ratchet flags both
//! regressions and stale budgets.

use std::path::PathBuf;

use smartflux_tidy::checks::{self, CheckId, Diagnostic};
use smartflux_tidy::manifest;
use smartflux_tidy::ratchet::{self, Counts};
use smartflux_tidy::runner;
use smartflux_tidy::source::{FileRole, SourceFile};

fn lib_file(src: &str) -> SourceFile {
    SourceFile::parse(PathBuf::from("crates/x/src/lib.rs"), FileRole::Lib, src)
}

fn lines_of(diags: &[Diagnostic]) -> Vec<usize> {
    diags.iter().map(|d| d.line).collect()
}

/// Checks emit raw findings; suppression happens centrally in the runner.
/// This mirrors that filter for single-file tests.
fn live(file: &SourceFile, diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    diags
        .into_iter()
        .filter(|d| !file.is_allowed(d.line, d.check.as_str()))
        .collect()
}

// ---------------------------------------------------------------- panic

#[test]
fn panic_check_fires_on_unwrap_with_line() {
    let f = lib_file("fn f() {\n    let v = x.unwrap();\n}\n");
    let diags = checks::check_panic(&f);
    assert_eq!(lines_of(&diags), vec![2]);
    assert_eq!(diags[0].check, CheckId::Panic);
    assert_eq!(
        diags[0].to_string().split(':').take(2).collect::<Vec<_>>(),
        vec!["crates/x/src/lib.rs", "2"]
    );
}

#[test]
fn panic_check_ignores_strings_comments_and_tests() {
    let f = lib_file(
        "fn f() {\n\
         \x20   let s = \"please .unwrap() me\"; // .unwrap() in comment\n\
         }\n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   fn t() { x.unwrap(); }\n\
         }\n",
    );
    assert!(checks::check_panic(&f).is_empty());
}

#[test]
fn panic_check_respects_allow_and_role() {
    let allowed = lib_file(
        "fn f() {\n\
         \x20   // tidy:allow(panic): invariant held by constructor\n\
         \x20   let v = x.unwrap();\n\
         }\n",
    );
    // The raw check still fires — that's what lets `allow-dangling` see
    // which suppressions are load-bearing — but the allow filters it.
    assert_eq!(lines_of(&checks::check_panic(&allowed)), vec![3]);
    assert!(live(&allowed, checks::check_panic(&allowed)).is_empty());

    let bench = SourceFile::parse(
        PathBuf::from("crates/x/benches/b.rs"),
        FileRole::Bench,
        "fn b() { x.unwrap(); }\n",
    );
    assert!(checks::check_panic(&bench).is_empty());
}

#[test]
fn panic_check_does_not_match_wider_macros() {
    // `assert!`/`debug_assert!` may panic by design and are allowed; make
    // sure the `panic!` token does not fire inside other identifiers.
    let f = lib_file("fn f() {\n    debug_assert!(ok);\n    assert!(ok);\n}\n");
    assert!(checks::check_panic(&f).is_empty());
}

// ------------------------------------------------------------- layering

#[test]
fn layering_rejects_forbidden_edge() {
    let toml = "[package]\n\
                name = \"smartflux-ml\"\n\
                [dependencies]\n\
                smartflux = { workspace = true }\n";
    let m = manifest::parse(PathBuf::from("crates/ml/Cargo.toml"), toml);
    let diags = checks::check_layering(&m, false);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].check, CheckId::Layering);
    assert_eq!(diags[0].line, 4);
    assert!(diags[0].message.contains("must not depend on `smartflux`"));
}

#[test]
fn layering_accepts_documented_edges_and_dev_deps() {
    let toml = "[package]\n\
                name = \"smartflux-wms\"\n\
                [dependencies]\n\
                smartflux-datastore = { workspace = true }\n\
                smartflux-telemetry = { workspace = true }\n\
                [dev-dependencies]\n\
                smartflux-workloads = { workspace = true }\n";
    let m = manifest::parse(PathBuf::from("crates/wms/Cargo.toml"), toml);
    assert!(checks::check_layering(&m, false).is_empty());
}

#[test]
fn layering_forbids_internal_deps_in_vendor() {
    let toml = "[package]\n\
                name = \"rand\"\n\
                [dependencies]\n\
                smartflux-telemetry = { workspace = true }\n";
    let m = manifest::parse(PathBuf::from("vendor/rand/Cargo.toml"), toml);
    let diags = checks::check_layering(&m, true);
    assert_eq!(diags.len(), 1);
}

// ------------------------------------------------------------- lock-std

#[test]
fn lock_std_fires_only_in_parking_lot_crates() {
    let src = "use std::sync::Mutex;\n";
    let f = lib_file(src);
    assert_eq!(
        lines_of(&checks::check_lock_std(&f, "smartflux-wms")),
        vec![1]
    );
    // The ml crate has no parking_lot mandate.
    assert!(checks::check_lock_std(&f, "smartflux-ml").is_empty());
    // Mentioning the type in a string is fine.
    let s = lib_file("fn f() { log(\"std::sync::Mutex is banned\"); }\n");
    assert!(checks::check_lock_std(&s, "smartflux-wms").is_empty());
}

// ------------------------------------------------------------ lock-span

#[test]
fn lock_span_flags_guard_held_across_callback() {
    let f = lib_file(
        "fn f(&self) {\n\
         \x20   let guard = self.state.lock();\n\
         \x20   self.observer.on_write(&w);\n\
         }\n",
    );
    let diags = checks::check_lock_span(&f, "smartflux-datastore");
    assert_eq!(lines_of(&diags), vec![3]);
}

#[test]
fn lock_span_respects_drop_and_scoping() {
    let dropped = lib_file(
        "fn f(&self) {\n\
         \x20   let guard = self.state.lock();\n\
         \x20   drop(guard);\n\
         \x20   self.observer.on_write(&w);\n\
         }\n",
    );
    assert!(checks::check_lock_span(&dropped, "smartflux-datastore").is_empty());

    let scoped = lib_file(
        "fn f(&self) {\n\
         \x20   {\n\
         \x20       let guard = self.state.lock();\n\
         \x20   }\n\
         \x20   self.observer.on_write(&w);\n\
         }\n",
    );
    assert!(checks::check_lock_span(&scoped, "smartflux-datastore").is_empty());
}

#[test]
fn lock_span_flags_for_loop_temporary_and_chain() {
    let for_loop = lib_file(
        "fn f(&self) {\n\
         \x20   for obs in self.observers.read().iter() {\n\
         \x20       obs.on_op(op, d);\n\
         \x20   }\n\
         }\n",
    );
    assert_eq!(
        lines_of(&checks::check_lock_span(&for_loop, "smartflux-datastore")),
        vec![3]
    );

    let chain = lib_file("fn f(&self) {\n    self.engine.lock().begin_wave(w, wf);\n}\n");
    assert_eq!(
        lines_of(&checks::check_lock_span(&chain, "smartflux")),
        vec![2]
    );
}

#[test]
fn lock_span_allow_suppresses() {
    let f = lib_file(
        "fn f(&self) {\n\
         \x20   // tidy:allow(lock-span): forwarding under its own mutex\n\
         \x20   self.engine.lock().begin_wave(w, wf);\n\
         }\n",
    );
    assert_eq!(lines_of(&checks::check_lock_span(&f, "smartflux")), vec![3]);
    assert!(live(&f, checks::check_lock_span(&f, "smartflux")).is_empty());
}

// ------------------------------------------------------ telemetry-guard

#[test]
fn telemetry_guard_requires_is_enabled() {
    let bare = lib_file("fn f(&self) {\n    self.telemetry.counter(\"c\").incr();\n}\n");
    assert_eq!(
        lines_of(&checks::check_telemetry_guard(&bare, "smartflux-wms")),
        vec![2]
    );

    let guarded = lib_file(
        "fn f(&self) {\n\
         \x20   if self.telemetry.is_enabled() {\n\
         \x20       self.telemetry.counter(\"c\").incr();\n\
         \x20   }\n\
         }\n",
    );
    assert!(checks::check_telemetry_guard(&guarded, "smartflux-wms").is_empty());

    let early_return = lib_file(
        "fn f(&self) {\n\
         \x20   if !self.telemetry.is_enabled() {\n\
         \x20       return;\n\
         \x20   }\n\
         \x20   self.telemetry.counter(\"c\").incr();\n\
         }\n",
    );
    assert!(checks::check_telemetry_guard(&early_return, "smartflux-wms").is_empty());
}

#[test]
fn telemetry_guard_skips_unlisted_crates_and_strings() {
    let bare = lib_file("fn f(&self) {\n    self.telemetry.counter(\"c\").incr();\n}\n");
    assert!(checks::check_telemetry_guard(&bare, "smartflux-telemetry").is_empty());

    let stringy = lib_file("fn f() { log(\"call .counter( somewhere\"); }\n");
    assert!(checks::check_telemetry_guard(&stringy, "smartflux-wms").is_empty());
}

// ----------------------------------------------------------------- time

#[test]
fn time_check_confines_clock_reads() {
    let f = lib_file("fn f() {\n    let t = Instant::now();\n}\n");
    assert_eq!(lines_of(&checks::check_time(&f, "smartflux-wms")), vec![2]);
    // The telemetry crate owns the clock.
    assert!(checks::check_time(&f, "smartflux-telemetry").is_empty());

    let allowed = lib_file(
        "fn f() {\n\
         \x20   // tidy:allow(time): measurement site, reported not replayed\n\
         \x20   let t = Instant::now();\n\
         }\n",
    );
    assert_eq!(
        lines_of(&checks::check_time(&allowed, "smartflux-wms")),
        vec![3]
    );
    assert!(live(&allowed, checks::check_time(&allowed, "smartflux-wms")).is_empty());

    let stringy = lib_file("fn f() { log(\"Instant::now() is banned\"); }\n");
    assert!(checks::check_time(&stringy, "smartflux-wms").is_empty());
}

// -------------------------------------------------------------- hygiene

#[test]
fn hygiene_flags_tabs_trailing_ws_dbg_and_todo() {
    let f = lib_file("fn f() {\n\tlet x = 1; \n    dbg!(x);\n    // TODO: fix this\n}\n");
    let diags = checks::check_hygiene(&f, "smartflux-wms", false);
    let msgs: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("tab character")));
    assert!(msgs.iter().any(|m| m.contains("trailing whitespace")));
    assert!(msgs.iter().any(|m| m.contains("dbg!")));
    assert!(msgs.iter().any(|m| m.contains("issue reference")));
}

#[test]
fn hygiene_accepts_referenced_todo_and_backticked_mentions() {
    let f = lib_file("fn f() {\n    // TODO(#42): tracked\n    // the `TODO` marker\n}\n");
    assert!(checks::check_hygiene(&f, "smartflux-wms", false).is_empty());
}

#[test]
fn hygiene_flags_malformed_allow_and_missing_headers() {
    let f = lib_file("fn f() {\n    x(); // tidy:allow(panic)\n}\n");
    let diags = checks::check_hygiene(&f, "smartflux-wms", false);
    assert!(diags
        .iter()
        .any(|d| d.message.contains("malformed `tidy:allow`")));

    let headerless = lib_file("//! A crate.\npub fn f() {}\n");
    let diags = checks::check_hygiene(&headerless, "smartflux-wms", true);
    assert!(diags
        .iter()
        .any(|d| d.message.contains("#![forbid(unsafe_code)]")));
    assert!(diags.iter().any(|d| d.message.contains("missing_docs")));
}

#[test]
fn hygiene_confines_allow_deprecated_to_frozen_modules() {
    // Five attributes fire: the lint itself, in a list, as `expect`, split
    // across lines the way rustfmt splits a long list, and the `warnings`
    // group that holds it. A longer lint name, a string, a comment and a
    // test module do not.
    let src = "#![allow(deprecated)]\n#[allow(clippy::x, deprecated)]\n#[expect(deprecated)]\n\
               #[allow(deprecated_in_future)]\nfn f() { g(\"allow(deprecated)\"); } // allow(deprecated)\n\
               #[allow(\n    clippy::x,\n    deprecated,\n)]\n#![allow(warnings)]\n\
               #[cfg(test)]\nmod tests {\n    #[allow(deprecated)]\n    fn t() {}\n}\n";
    let at = |path: &str, role: FileRole| -> Vec<usize> {
        let file = SourceFile::parse(PathBuf::from(path), role, src);
        let diags = checks::check_hygiene(&file, "smartflux-wms", false);
        lines_of(&diags)
    };
    assert_eq!(at("crates/x/src/lib.rs", FileRole::Lib), [1, 2, 3, 6, 10]);
    assert_eq!(at("crates/x/src/bin/b.rs", FileRole::Bin), [1, 2, 3, 6, 10]);
    assert_eq!(
        at("crates/x/src/frozen_ish.rs", FileRole::Lib),
        [1, 2, 3, 6, 10]
    );
    // The frozen modules, tests, benches and examples are exempt.
    for (path, role) in [
        ("crates/x/src/frozen.rs", FileRole::Lib),
        ("crates/x/src/frozen/wal.rs", FileRole::Lib),
        ("crates/x/tests/t.rs", FileRole::Test),
        ("crates/x/benches/b.rs", FileRole::Bench),
        ("crates/x/examples/e.rs", FileRole::Example),
    ] {
        assert!(at(path, role).is_empty(), "{path}");
    }
}

#[test]
fn hygiene_refuses_a_manifest_that_allows_deprecated() {
    // Either lint, in either table form, and in the workspace's table.
    let toml = "[package]\nname = \"smartflux-wms\"\n[lints.rust]\n\
                warnings = { level = \"allow\", priority = -1 }\n\
                deprecated_in_future = \"allow\"\ndeprecated = \"deny\"\n\
                [lints.rust.deprecated]\nlevel = \"allow\"\n\
                [workspace.lints.rust]\ndeprecated = \"allow\"\n\
                [workspace.lints.clippy]\ndeprecated = \"allow\"\n";
    let m = manifest::parse(PathBuf::from("crates/wms/Cargo.toml"), toml);
    assert_eq!(lines_of(&checks::check_lint_levels(&m)), [4, 8, 10]);
}

// -------------------------------------------------------------- ratchet

fn counts(cells: &[(&str, &str, usize)]) -> Counts {
    let mut c = Counts::new();
    for (check, krate, n) in cells {
        c.entry((*check).to_owned())
            .or_default()
            .insert((*krate).to_owned(), *n);
    }
    c
}

#[test]
fn ratchet_flags_regressions() {
    let live = counts(&[("panic", "smartflux-workloads", 36)]);
    let budget = counts(&[("panic", "smartflux-workloads", 35)]);
    let report = runner::compare_ratchet(&live, &budget, &checks::ALL_CHECKS);
    assert!(!report.is_clean());
    assert_eq!(report.over.len(), 1);
    assert_eq!(
        report.over[0],
        ("panic".into(), "smartflux-workloads".into(), 36, 35)
    );
    assert!(report.stale.is_empty());
}

#[test]
fn ratchet_flags_stale_budgets_so_improvements_get_committed() {
    let live = counts(&[("panic", "smartflux-workloads", 30)]);
    let budget = counts(&[("panic", "smartflux-workloads", 35)]);
    let report = runner::compare_ratchet(&live, &budget, &checks::ALL_CHECKS);
    assert!(!report.is_clean());
    assert!(report.over.is_empty());
    assert_eq!(report.stale.len(), 1);
}

#[test]
fn ratchet_matches_exactly_when_counts_agree() {
    let live = counts(&[("panic", "smartflux-bench", 27)]);
    let budget = counts(&[("panic", "smartflux-bench", 27)]);
    let report = runner::compare_ratchet(&live, &budget, &checks::ALL_CHECKS);
    assert!(report.is_clean());
}

#[test]
fn ratchet_only_compares_selected_checks() {
    let live = counts(&[("panic", "smartflux-bench", 99)]);
    let budget = Counts::new();
    let report = runner::compare_ratchet(&live, &budget, &[CheckId::Hygiene]);
    assert!(report.is_clean());
}

#[test]
fn ratchet_json_roundtrips_the_committed_shape() {
    let c = counts(&[
        ("panic", "smartflux-bench", 27),
        ("panic", "smartflux-workloads", 35),
    ]);
    let text = ratchet::to_json(&c);
    assert_eq!(ratchet::from_json(&text).unwrap(), c);
}
