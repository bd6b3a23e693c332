//! Durability configuration.

use std::path::{Path, PathBuf};

use crate::frozen::WalSync;

/// Configuration for the durability subsystem.
///
/// # Example
///
/// ```
/// use smartflux_durability::DurabilityOptions;
///
/// let opts = DurabilityOptions::new("/tmp/smartflux-durable").with_checkpoint_interval(100);
/// assert_eq!(opts.checkpoint_interval(), 100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityOptions {
    dir: PathBuf,
    /// Read only by the store-level WAL in [`crate::frozen`].
    pub(crate) sync: WalSync,
    checkpoint_interval: u64,
}

impl DurabilityOptions {
    /// Durability rooted at `dir` (created on first use), checkpointing
    /// every 50 waves.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            sync: WalSync::default(),
            checkpoint_interval: 50,
        }
    }

    /// Sets the checkpoint interval in waves. An interval of `n` writes a
    /// checkpoint after every wave divisible by `n`. Clamped to at least 1.
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
