//! `smartflux-tidy`: dependency-free static analysis for the SmartFlux
//! workspace, in the spirit of rust-lang/rust's `tidy`.
//!
//! SmartFlux's value proposition is a correctness contract — skipped waves
//! keep output deviation under `maxε` with high confidence — so middleware
//! bugs that a general linter cannot know about (a panic mid-wave, a lock
//! held across a step callback, a telemetry call that costs time on the
//! disabled path, an architecture-violating crate edge) directly threaten
//! the guarantee. This crate machine-checks those repo-specific
//! invariants:
//!
//! | id                | invariant |
//! |-------------------|-----------|
//! | `layering`        | the crate dependency DAG matches the documented architecture |
//! | `panic`           | no `unwrap()`/`expect()`/`panic!`/`todo!` in library code |
//! | `lock-std`        | vendored `parking_lot` locks, never `std::sync`, in lock-adopting crates |
//! | `lock-span`       | no lock guard held across step/observer/sink callbacks |
//! | `telemetry-guard` | metrics calls sit behind an `is_enabled()` guard |
//! | `time`            | no ambient clock reads outside telemetry/bench |
//! | `hygiene`         | tabs, trailing whitespace, `dbg!`, `TODO` refs, lint headers, `allow(deprecated)` or `allow(warnings)` outside `frozen` |
//! | `atomic-ordering` | every atomic field declares a `tidy:atomic` discipline and every `Ordering::*` use matches it |
//! | `guard-blocking`  | no guard held across a blocking call (send/recv/join/file I/O) in the same function |
//! | `allow-dangling`  | every `tidy:allow` suppresses something; stale allows are errors |
//!
//! The first seven are lexical, line-at-a-time checks. `atomic-ordering`
//! and `guard-blocking` come from the [`concurrency`] passes, which group
//! the same lexed lines into statements and function bodies.
//! `guard-blocking` looks at one function at a time and does not follow
//! calls, so a guard held across a call into a function that blocks is
//! outside its reach (see that module's docs for the real shapes of that
//! kind and the documented exclusions).
//!
//! Checks are suppressed per line with a machine-readable
//! `// tidy:allow(<check-id>): <reason>` comment — and since checks emit
//! raw findings that the runner filters centrally, a suppression that no
//! longer fires is itself reported (`allow-dangling`). Pre-existing debt
//! is budgeted per `(check, crate)` in a committed ratchet file
//! (`tidy-ratchet.json`) that the pass forces to shrink monotonically: a
//! count above budget fails, and a count *below* budget also fails until
//! the file is tightened with `--write-ratchet`.
//!
//! Everything is hand-rolled (a comment/string-aware lexer, a minimal
//! `Cargo.toml` reader, a tiny JSON codec) so the binary builds offline
//! with zero external dependencies and runs in well under a second.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checks;
pub mod concurrency;
pub mod lex;
pub mod manifest;
pub mod ratchet;
pub mod report;
pub mod runner;
pub mod source;
