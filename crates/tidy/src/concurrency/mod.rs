//! Function-aware concurrency analysis.
//!
//! The lexical checks in [`crate::checks`] see one line at a time. The
//! passes in this module see one *crate* at a time, through statements
//! ([`stmt`]) and function bodies ([`symbols`]) built from the same
//! comment- and string-stripped line views the lexer already produces:
//!
//! - [`atomics`] — every atomic field must declare an ordering
//!   discipline via `tidy:atomic(...)`; every `Ordering::*` use must
//!   match it (`atomic-ordering`).
//! - [`blocking`] — no guard held across a blocking call (channel
//!   send/recv, thread join, file I/O) in the same function
//!   (`guard-blocking`). Calls are not followed: a guard held across a
//!   call into a function that blocks is outside its reach (see the
//!   module docs for the two real shapes of that kind).
//!
//! Everything is hand-rolled on `std` only — no syn, no rustc
//! internals — so the whole workspace analyzes in well under a second.
//! The price is precision at the edges, and the passes are engineered to
//! stay quiet rather than guess (see each pass's module docs for its
//! documented exclusions).

pub mod atomics;
pub mod blocking;
pub mod stmt;
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
