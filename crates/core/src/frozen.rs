//! Surface fenced off for the frozen benchmark (`benchmark/`) until its
//! re-baseline (ROADMAP item 3), when it goes. Every public item is
//! `#[deprecated]`.
//!
//! - Re-exports of the store-level WAL surface, which the benchmark imports
//!   through this crate (`benchmark/src/probes.rs`: `recover_store`,
//!   `SyncPolicy`; `benchmark/src/inproc.rs`: `SyncPolicy`).
//! - A watch-only [`Monitor`]: `benchmark/src/probes.rs` times the store's
//!   write path with containers watched through `Monitor::{new, watch,
//!   attach}`. The engine opens its store's change sets itself.
//!
//! What cannot move: the one-variant `ModelKind::RandomForest { .. }`,
//! which the benchmark builds and matches as a struct literal
//! (`benchmark/src/workloads.rs`, `probes.rs`).

#![allow(deprecated)]

use parking_lot::Mutex;
use smartflux_datastore::{ContainerRef, DataStore};

pub use smartflux_durability::{recover_store, SyncPolicy};

/// Containers to watch in a store: each write to one is counted there from
/// [`attach`](Self::attach) on.
#[deprecated(note = "kept only for benchmark/ until its re-baseline, ROADMAP item 3")]
#[derive(Debug, Default)]
pub struct Monitor {
    watched: Mutex<Vec<ContainerRef>>,
}

impl Monitor {
    /// Creates a monitor watching nothing.
    #[deprecated(note = "kept only for benchmark/ until its re-baseline, ROADMAP item 3")]
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a container to the watch list installed by
    /// [`attach`](Self::attach).
    #[deprecated(note = "kept only for benchmark/ until its re-baseline, ROADMAP item 3")]
    pub fn watch(&self, container: ContainerRef) {
        self.watched.lock().push(container);
    }

    /// Opens a watch list in `store` over every container watched so far.
    #[deprecated(note = "kept only for benchmark/ until its re-baseline, ROADMAP item 3")]
    pub fn attach(&self, store: &DataStore) {
        let list = store.watch_list();
        for container in self.watched.lock().iter() {
            store.watch(list, container, None);
        }
    }
}
