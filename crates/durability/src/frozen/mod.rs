//! The store-level write-ahead log, fenced off: no session writes it, and
//! it is kept only for the frozen benchmark (`benchmark/`) until its
//! re-baseline (ROADMAP item 3). Every public item is `#[deprecated]`, so
//! `cargo clippy -- -D warnings` rejects a production caller.
//!
//! The benchmark's call sites: `benchmark/src/probes.rs` times
//! [`DurabilityManager`]'s `attach` + `commit_wave` under both
//! [`SyncPolicy`]s and [`recover_store`]; `benchmark/src/inproc.rs` sets
//! `with_sync(SyncPolicy::Never)` on its durable sessions. What cannot
//! move here: `DurabilityOptions`' `sync` field, read through [`WalSync`].
//!
//! The log is never compacted: it grows by one frame per committed wave,
//! and [`recover_store`] skips the waves a checkpoint covers. That is
//! acceptable only because its one non-test caller is a benchmark probe
//! that commits a bounded number of waves. Reopening a log cuts a torn
//! final record off before anything is appended.

#![allow(deprecated)]

mod manager;
mod recover;
mod wal;

use crate::options::DurabilityOptions;

pub use manager::{DurabilityManager, WAL_FILE};
pub use recover::recover_store;

/// When WAL appends are flushed to stable storage: after every commit, or
/// never (left to the operating system). Checkpoints are always synced.
#[deprecated(note = "kept only for benchmark/ until its re-baseline, ROADMAP item 3")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Fsync after every committed batch.
    Always,
    /// Never fsync; rely on OS write-back.
    Never,
}

/// The [`SyncPolicy`] a [`DurabilityOptions`] carries, in a type its module
/// can name without a deprecation warning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WalSync(SyncPolicy);

impl Default for WalSync {
    fn default() -> Self {
        Self(SyncPolicy::Always)
    }
}

impl DurabilityOptions {
    /// Sets the WAL sync policy (default [`SyncPolicy::Always`]).
    #[deprecated(note = "kept only for benchmark/ until its re-baseline, ROADMAP item 3")]
    #[must_use]
    pub fn with_sync(mut self, sync: SyncPolicy) -> Self {
        self.sync = WalSync(sync);
        self
    }

    /// The WAL sync policy.
    #[deprecated(note = "kept only for benchmark/ until its re-baseline, ROADMAP item 3")]
    #[must_use]
    pub fn sync(&self) -> SyncPolicy {
        self.sync.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_defaults_to_always() {
        let options = DurabilityOptions::new("d");
        assert_eq!(options.sync(), SyncPolicy::Always);
        assert_eq!(
            options.with_sync(SyncPolicy::Never).sync(),
            SyncPolicy::Never
        );
    }
}
