//! Fixture-driven tests for the concurrency passes: `guard-blocking`
//! through the runner on the workspace's real guard-and-I/O shapes, and
//! dangling suppressions end to end.

use std::path::PathBuf;

use smartflux_tidy::checks::{CheckId, ALL_CHECKS};
use smartflux_tidy::manifest;
use smartflux_tidy::runner::{self, CrateUnit};
use smartflux_tidy::source::{FileRole, SourceFile};

fn file(path: &str, src: &str) -> SourceFile {
    SourceFile::parse(PathBuf::from(path), FileRole::Lib, src)
}

fn unit(name: &str, files: Vec<SourceFile>) -> CrateUnit {
    CrateUnit {
        name: name.to_owned(),
        manifest: manifest::parse(
            PathBuf::from("crates/fixture/Cargo.toml"),
            &format!("[package]\nname = \"{name}\"\n"),
        ),
        vendored: false,
        files,
    }
}

// ------------------------------------------------ guard-blocking via runner

fn guard_blocking(src: &str) -> Vec<smartflux_tidy::checks::Diagnostic> {
    let unit = unit(
        "smartflux-telemetry",
        vec![file("crates/fixture/src/lib.rs", src)],
    );
    runner::run_checks(std::slice::from_ref(&unit), &[CheckId::GuardBlocking])
}

#[test]
fn sink_flush_under_the_sink_list_guard_is_reported() {
    // The shape `Telemetry::flush` once had: every sink flushed while the
    // sink-list read guard is held.
    let diags = guard_blocking(
        "impl Telemetry {\n\
         \x20   pub fn flush(&self) -> std::io::Result<()> {\n\
         \x20       for sink in self.inner.journal.read().iter() {\n\
         \x20           sink.flush()?;\n\
         \x20       }\n\
         \x20       Ok(())\n\
         \x20   }\n\
         }\n",
    );
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].check, CheckId::GuardBlocking);
    assert_eq!(diags[0].line, 4);
    let msg = &diags[0].message;
    assert!(msg.contains("writer flush"), "{msg}");
    assert!(msg.contains("`journal`"), "{msg}");
}

#[test]
fn io_on_the_writers_own_guard_stays_exempt() {
    // `JsonlSink`: the mutex exists to serialize the file writes, so I/O
    // driven through its guard, fresh or named, is the design. `record`
    // is the sink's real shape; `record_all` names the guard.
    let diags = guard_blocking(
        "impl JournalSink for JsonlSink {\n\
         \x20   fn record(&self, row: &Row) -> std::io::Result<()> {\n\
         \x20       writeln!(self.writer.lock(), \"{}\", Line(row))\n\
         \x20   }\n\
         \x20   fn flush(&self) -> std::io::Result<()> {\n\
         \x20       self.writer.lock().flush()\n\
         \x20   }\n\
         }\n\
         impl JsonlSink {\n\
         \x20   fn record_all(&self, rows: &[Row]) -> std::io::Result<()> {\n\
         \x20       let mut w = self.writer.lock();\n\
         \x20       for row in rows {\n\
         \x20           writeln!(w, \"{}\", Line(row))?;\n\
         \x20       }\n\
         \x20       w.flush()\n\
         \x20   }\n\
         }\n",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn guard_dropped_before_the_blocking_call_stays_quiet() {
    let diags = guard_blocking(
        "impl Telemetry {\n\
         \x20   pub fn flush(&self) -> std::io::Result<()> {\n\
         \x20       let sinks = self.inner.journal.read();\n\
         \x20       let first = sinks.first().cloned();\n\
         \x20       drop(sinks);\n\
         \x20       if let Some(sink) = first {\n\
         \x20           sink.flush()?;\n\
         \x20       }\n\
         \x20       Ok(())\n\
         \x20   }\n\
         }\n",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

// --------------------------------------------- dangling-allow end-to-end

#[test]
fn stale_allow_is_reported_and_live_allow_is_not() {
    let unit = unit(
        "smartflux-datastore",
        vec![file(
            "crates/fixture/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             #![warn(missing_docs)]\n\
             //! Fixture crate.\n\
             /// Doc.\n\
             pub fn f() -> u32 {\n\
             \x20   // tidy:allow(panic): fixture — nothing panics here\n\
             \x20   1\n\
             }\n\
             /// Doc.\n\
             pub fn g(x: Option<u32>) -> u32 {\n\
             \x20   // tidy:allow(panic): fixture — this one is load-bearing\n\
             \x20   x.unwrap()\n\
             }\n\
             /// Doc.\n\
             pub fn h() -> u32 {\n\
             \x20   // tidy:allow(lock-order): fixture — names a deleted check\n\
             \x20   3\n\
             }\n",
        )],
    );
    let diags = runner::run_checks(std::slice::from_ref(&unit), &ALL_CHECKS);
    let dangling: Vec<_> = diags
        .iter()
        .filter(|d| d.check == CheckId::AllowDangling)
        .collect();
    assert_eq!(dangling.len(), 2, "{diags:?}");
    // The allow covers the line after the comment, so that's where the
    // dangling diagnostic anchors.
    assert_eq!(dangling[0].line, 7);
    assert!(
        dangling[0].message.contains("suppresses nothing"),
        "{diags:?}"
    );
    // An allow naming a check that no longer exists is refused, not
    // silently ignored.
    assert_eq!(dangling[1].line, 17);
    assert!(
        dangling[1]
            .message
            .contains("`tidy:allow(lock-order)` names an unknown check id"),
        "{diags:?}"
    );
    // The load-bearing allow on `g` is not flagged, and the panic it
    // suppresses stays suppressed.
    assert!(
        !diags.iter().any(|d| d.check == CheckId::Panic),
        "{diags:?}"
    );
}
