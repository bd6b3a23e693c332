//! Durability configuration.

use std::path::{Path, PathBuf};

/// When WAL appends are flushed to stable storage.
///
/// Mirrors the classic WAL trade-off: `Always` gives per-commit durability
/// at an fsync per commit, `Interval(n)` amortises the fsync over `n`
/// commits, and `Never` leaves flushing to the operating system (data
/// survives process crashes but not host crashes). It governs only the
/// store-level [`DurabilityManager::commit_wave`] API; an engine session
/// logs nothing and its checkpoints are always synced.
///
/// [`DurabilityManager::commit_wave`]: crate::DurabilityManager::commit_wave
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Fsync after every committed batch.
    Always,
    /// Fsync after every `n` committed batches.
    Interval(u64),
    /// Never fsync; rely on OS write-back.
    Never,
}

/// Configuration for the durability subsystem.
///
/// # Example
///
/// ```
/// use smartflux_durability::{DurabilityOptions, SyncPolicy};
///
/// let opts = DurabilityOptions::new("/tmp/smartflux-wal")
///     .with_sync(SyncPolicy::Interval(8))
///     .with_checkpoint_interval(100);
/// assert_eq!(opts.checkpoint_interval(), 100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityOptions {
    dir: PathBuf,
    sync: SyncPolicy,
    checkpoint_interval: u64,
}

impl DurabilityOptions {
    /// Durability rooted at `dir` (created on first use), syncing every
    /// commit and checkpointing every 50 waves.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            sync: SyncPolicy::Always,
            checkpoint_interval: 50,
        }
    }

    /// Sets the WAL sync policy.
    #[must_use]
    pub fn with_sync(mut self, sync: SyncPolicy) -> Self {
        self.sync = sync;
        self
    }

    /// Sets the checkpoint interval in waves. An interval of `n` writes a
    /// checkpoint (and compacts the WAL) after every wave divisible by
    /// `n`. Clamped to at least 1.
    #[must_use]
    pub fn with_checkpoint_interval(mut self, waves: u64) -> Self {
        self.checkpoint_interval = waves.max(1);
        self
    }

    /// The durability directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The WAL sync policy.
    #[must_use]
    pub fn sync(&self) -> SyncPolicy {
        self.sync
    }

    /// The checkpoint interval in waves.
    #[must_use]
    pub fn checkpoint_interval(&self) -> u64 {
        self.checkpoint_interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_safe() {
        let o = DurabilityOptions::new("d");
        assert_eq!(o.sync(), SyncPolicy::Always);
        assert_eq!(o.checkpoint_interval(), 50);
        assert_eq!(o.dir(), Path::new("d"));
    }

    #[test]
    fn zero_checkpoint_interval_is_clamped() {
        assert_eq!(
            DurabilityOptions::new("d")
                .with_checkpoint_interval(0)
                .checkpoint_interval(),
            1
        );
    }
}
