//! Shard mapping and concurrency policy for the store.
//!
//! The store partitions its containers across a fixed set of shards, each
//! protected by its own reader-writer lock, so concurrent workflow steps
//! touching different containers never contend on a global lock. A
//! container — a `(table, family)` pair — is the unit of placement: every
//! cell of a family lives on exactly one shard, chosen by hashing the
//! container name. The shard count is fixed at construction (always a
//! power of two, so placement is a mask instead of a modulo);
//! `ShardPolicy::Fixed(1)` puts everything on one shard.

/// How the store partitions containers across locks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ShardPolicy {
    /// A fixed shard count, rounded up to the next power of two (minimum
    /// 1). `Fixed(1)` is one shard guarding everything: the A/B baseline
    /// and the single-threaded replay oracle of the concurrency battery.
    Fixed(usize),
    /// The default: a shard count sized for typical workflow fan-out.
    #[default]
    Auto,
}

/// Shard count used by [`ShardPolicy::Auto`].
///
/// Sixteen comfortably exceeds the per-level step fan-out of the bundled
/// workloads, so parallel waves rarely co-locate two hot containers, while
/// keeping the all-shard quiesce in `export_state` cheap.
pub const AUTO_SHARDS: usize = 16;

impl ShardPolicy {
    /// Resolves the policy to a concrete shard count (a power of two ≥ 1).
    #[must_use]
    pub fn shard_count(self) -> usize {
        match self {
            ShardPolicy::Fixed(n) => n.max(1).next_power_of_two(),
            ShardPolicy::Auto => AUTO_SHARDS,
        }
    }
}

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

/// Maps a container name to a shard slot under `mask` (= shard count − 1).
///
/// FNV-1a over the table name, a separator byte that cannot occur in UTF-8
/// text, and the family name, so `("ab", "c")` and `("a", "bc")` land
/// independently.
#[must_use]
pub(crate) fn shard_index(mask: usize, table: &str, family: &str) -> usize {
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
    (hash as usize) & mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_resolve_to_powers_of_two() {
        assert_eq!(ShardPolicy::Fixed(0).shard_count(), 1);
        assert_eq!(ShardPolicy::Fixed(3).shard_count(), 4);
        assert_eq!(ShardPolicy::Fixed(8).shard_count(), 8);
        assert_eq!(ShardPolicy::Auto.shard_count(), AUTO_SHARDS);
        assert!(AUTO_SHARDS.is_power_of_two());
    }

    #[test]
    fn separator_distinguishes_container_boundaries() {
        // With a plain concatenation these two would collide on every mask.
        let a = shard_index(usize::MAX, "ab", "c");
        let b = shard_index(usize::MAX, "a", "bc");
        assert_ne!(a, b);
    }

    #[test]
    fn single_shard_maps_everything_to_zero() {
        for (t, f) in [("t", "f"), ("lrb", "feed"), ("x", "y")] {
            assert_eq!(shard_index(0, t, f), 0);
        }
    }

    #[test]
    fn mapping_is_stable_and_in_range() {
        let mask = 15;
        for (t, f) in [("lrb", "feed"), ("lrb", "seg"), ("lrb", "tolls")] {
            let idx = shard_index(mask, t, f);
            assert!(idx <= mask);
            assert_eq!(idx, shard_index(mask, t, f));
        }
    }
}
