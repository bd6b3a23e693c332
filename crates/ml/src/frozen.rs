//! Surface fenced off for the frozen benchmark (`benchmark/`) until its
//! re-baseline (ROADMAP item 3), when it goes. Every public item is
//! `#[deprecated]`.
//!
//! - [`RandomForest::arena`]: `benchmark/src/probes.rs` reads
//!   `forest.arena().n_nodes()` for `ml.forest_nodes`. The forest counts
//!   its own nodes, so the accessor hands back the forest itself.

use crate::forest::RandomForest;

impl RandomForest {
    /// The forest itself, whose [`n_nodes`](Self::n_nodes) is what
    /// `ml.forest_nodes` reads.
    #[deprecated(note = "kept only for benchmark/ until its re-baseline, ROADMAP item 3")]
    #[must_use]
    pub fn arena(&self) -> &Self {
        self
    }
}
