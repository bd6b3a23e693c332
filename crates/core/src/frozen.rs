//! Re-exports of the store-level WAL surface, fenced off: kept only
//! because the frozen benchmark imports them through this crate
//! (`benchmark/src/probes.rs`: `recover_store`, `SyncPolicy`;
//! `benchmark/src/inproc.rs`: `SyncPolicy`). Deleted with the benchmark's
//! re-baseline (ROADMAP item 3).
//!
//! What cannot move: the one-variant `ModelKind::RandomForest { .. }`,
//! which the benchmark builds and matches as a struct literal
//! (`benchmark/src/workloads.rs`, `probes.rs`).

#![allow(deprecated)]

pub use smartflux_durability::{recover_store, SyncPolicy};
