//! Shard mapping for the store.
//!
//! The store partitions its containers across a fixed set of shards, each
//! protected by its own reader-writer lock, so concurrent writers (a
//! step on its watchdog thread, host ingest beside a checkpoint, cloned
//! handles) touching different containers never contend on a global lock. A
//! container — a `(table, family)` pair — is the unit of placement: every
//! cell of a family lives on exactly one shard, chosen by hashing the
//! container name.

/// Number of shards every store is built with.
///
/// Sixteen keeps concurrent writers on different containers apart while
/// keeping the all-shard quiesce in `export_state` cheap. A power of two, so
/// placement is a mask instead of a modulo.
pub(crate) const SHARDS: usize = 16;
const _: () = assert!(SHARDS.is_power_of_two());

/// A point-in-time view of shard-level concurrency counters.
///
/// Contention is counted optimistically: each lock acquisition first tries
/// a non-blocking grab and bumps the matching counter only when it has to
/// fall back to a blocking wait, so the counters measure *actual* lock
/// waits, not traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Number of shards the store was built with.
    pub shards: usize,
    /// Read acquisitions that had to block on a writer.
    pub read_contention: u64,
    /// Write acquisitions that had to block on another holder.
    pub write_contention: u64,
    /// Full-store quiesces taken (state exports).
    pub quiesces: u64,
}

/// FNV-1a over the table name, a separator byte that cannot occur in UTF-8
/// text, and the family name, so `("ab", "c")` and `("a", "bc")` land
/// independently.
fn container_hash(table: &str, family: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for byte in table
        .bytes()
        .chain(std::iter::once(0xFF))
        .chain(family.bytes())
    {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Maps a container name to its shard slot.
#[must_use]
pub(crate) fn shard_index(table: &str, family: &str) -> usize {
    (container_hash(table, family) as usize) & (SHARDS - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separator_distinguishes_container_boundaries() {
        // With a plain concatenation these two would collide on every mask.
        assert_ne!(container_hash("ab", "c"), container_hash("a", "bc"));
    }

    #[test]
    fn mapping_is_stable_and_in_range() {
        for (t, f) in [("lrb", "feed"), ("lrb", "seg"), ("lrb", "tolls")] {
            let idx = shard_index(t, f);
            assert!(idx < SHARDS);
            assert_eq!(idx, shard_index(t, f));
        }
    }
}
