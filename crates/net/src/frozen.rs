//! A no-op knob, fenced off: kept only for the frozen benchmark
//! (`benchmark/src/served.rs` calls `HostConfig::with_workers`) until its
//! re-baseline (ROADMAP item 3).
//!
//! What cannot move: `crossbeam` in this crate's `Cargo.toml`. No code
//! uses it, but `benchmark/Cargo.lock` lists it and must stay as it is.

use crate::host::HostConfig;

impl HostConfig {
    /// Does nothing: requests run on their caller's thread, so there is
    /// no worker pool to size.
    #[deprecated(note = "kept only for benchmark/ until its re-baseline, ROADMAP item 3")]
    #[must_use]
    pub fn with_workers(self, _workers: usize) -> Self {
        self
    }
}
