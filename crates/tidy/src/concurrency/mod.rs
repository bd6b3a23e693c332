//! Symbol-aware concurrency analysis.
//!
//! The lexical checks in [`crate::checks`] see one line at a time. The
//! passes in this module see one *crate* at a time: a lightweight
//! symbol table ([`symbols`]) and call-graph/lock model ([`callgraph`])
//! are built from the same comment- and string-stripped line views the
//! lexer already produces, and two analyses run on top:
//!
//! - [`atomics`] — every atomic field must declare an ordering
//!   discipline via `tidy:atomic(...)`; every `Ordering::*` use must
//!   match it (`atomic-ordering`).
//! - [`blocking`] — guards held across calls that (transitively) reach
//!   blocking I/O (`guard-blocking`).
//!
//! Everything is hand-rolled on `std` only — no syn, no rustc
//! internals — so the whole workspace analyzes in well under a second.
//! The price is precision at the edges: resolution is name-based
//! (trait dispatch is *ambiguous*, closures called through fields are
//! *unknown*), and the passes are engineered to stay quiet rather than
//! guess (see each pass's module docs for its documented exclusions).

pub mod atomics;
pub mod blocking;
pub mod callgraph;
pub mod symbols;

/// Crates the concurrency passes run on. Leaf/bench/tooling crates are
/// excluded: they are single-threaded drivers and would only add noise.
pub const CONCURRENCY_CRATES: [&str; 8] = [
    "smartflux",
    "smartflux-wms",
    "smartflux-datastore",
    "smartflux-telemetry",
    "smartflux-durability",
    "smartflux-obs",
    "smartflux-net",
    "smartflux-sim",
];
