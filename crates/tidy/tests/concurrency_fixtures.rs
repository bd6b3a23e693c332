//! Fixture-driven tests for the concurrency passes: call-graph
//! resolution, `guard-blocking` through the runner, and dangling
//! suppressions end to end.

use std::path::PathBuf;

use smartflux_tidy::checks::{CheckId, ALL_CHECKS};
use smartflux_tidy::concurrency::callgraph::{Model, Resolution};
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

#[test]
fn guard_blocking_alone_still_builds_its_call_graph() {
    // `append` holds the `state` guard across `persist`, which reaches
    // `sync_data` one call further down: only the call graph sees it.
    let unit = unit(
        "smartflux-durability",
        vec![file(
            "crates/fixture/src/wal.rs",
            "impl Wal {\n\
             \x20   fn append(&self) {\n\
             \x20       let g = self.state.lock();\n\
             \x20       self.persist();\n\
             \x20       drop(g);\n\
             \x20   }\n\
             \x20   fn persist(&self) {\n\
             \x20       self.fsync_file();\n\
             \x20   }\n\
             \x20   fn fsync_file(&self) {\n\
             \x20       self.file.sync_data().ok();\n\
             \x20   }\n\
             }\n",
        )],
    );
    let diags = runner::run_checks(std::slice::from_ref(&unit), &[CheckId::GuardBlocking]);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].check, CheckId::GuardBlocking);
    assert_eq!(diags[0].line, 4);
    let msg = &diags[0].message;
    assert!(msg.contains("(via persist -> fsync_file)"), "{msg}");
    assert!(msg.contains("`state`"), "{msg}");
}

// -------------------------------------------------- call-graph resolution

fn facts_of<'m>(
    model: &'m Model,
    name: &str,
) -> &'m smartflux_tidy::concurrency::callgraph::FnFacts {
    let idx = model
        .symbols
        .fns
        .iter()
        .position(|f| f.name == name)
        .unwrap_or_else(|| panic!("no fn `{name}`"));
    &model.facts[idx]
}

#[test]
fn cross_module_free_call_resolves_to_one_edge() {
    let files = vec![
        file(
            "crates/ds/src/codec.rs",
            "pub fn encode_op(buf: &mut Vec<u8>, op: u8) {\n    buf.push(op);\n}\n",
        ),
        file(
            "crates/ds/src/store.rs",
            "impl Store {\n    fn log(&self, buf: &mut Vec<u8>) {\n        encode_op(buf, 1);\n    }\n}\n",
        ),
    ];
    let model = Model::build(&files);
    let call = facts_of(&model, "log")
        .calls
        .iter()
        .find(|c| c.name == "encode_op")
        .expect("call recorded");
    assert_eq!(call.resolution, Resolution::Resolved);
    assert_eq!(model.symbols.fns[call.candidates[0]].name, "encode_op");
}

#[test]
fn trait_dispatch_stays_conservatively_ambiguous() {
    let files = vec![file(
        "crates/ds/src/obs.rs",
        "struct FileSink;\nstruct RingSink;\n\
         impl FileSink {\n    fn record(&self) {}\n}\n\
         impl RingSink {\n    fn record(&self) {}\n}\n\
         struct Bus { sink: Box<FileSink> }\n\
         impl Bus {\n    fn publish(&self) {\n        self.sink.record();\n    }\n}\n",
    )];
    let model = Model::build(&files);
    let call = facts_of(&model, "publish")
        .calls
        .iter()
        .find(|c| c.name == "record")
        .expect("call recorded");
    assert_eq!(call.resolution, Resolution::Ambiguous);
    assert_eq!(call.candidates.len(), 2);
}

#[test]
fn closure_callback_is_conservatively_unknown() {
    let files = vec![file(
        "crates/ds/src/bus.rs",
        "impl Bus {\n\
         \x20   fn dispatch(&self, row: &str) {\n\
         \x20       for obs in self.observers.iter() {\n\
         \x20           obs.on_write(row);\n\
         \x20       }\n\
         \x20   }\n\
         }\n",
    )];
    let model = Model::build(&files);
    let call = facts_of(&model, "dispatch")
        .calls
        .iter()
        .find(|c| c.name == "on_write")
        .expect("call recorded");
    assert_eq!(call.resolution, Resolution::Unknown);
    assert!(call.candidates.is_empty());
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
