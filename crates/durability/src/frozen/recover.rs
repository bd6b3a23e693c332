//! Store recovery: checkpoint load plus WAL-tail replay.

use std::path::Path;

use smartflux_datastore::{ContainerRef, DataStore, FamilyHandle, StoreError};

use super::manager::WAL_FILE;
use super::wal::{read_wal, WalOp};
use crate::checkpoint::read_checkpoint;
use crate::error::DurabilityError;

/// A store rebuilt from a durability directory.
#[derive(Debug)]
pub struct RecoveredStore {
    /// The reconstructed store.
    pub store: DataStore,
    /// Wave of the checkpoint the recovery started from (0 if none).
    pub checkpoint_wave: u64,
    /// Highest wave whose commit record was replayed (equals
    /// `checkpoint_wave` when the WAL tail was empty).
    pub last_wave: u64,
    /// Opaque engine state captured at the checkpoint (empty if none).
    pub engine_state: Vec<u8>,
    /// `true` if the WAL ended in a torn record, which was dropped.
    pub torn_tail: bool,
}

fn replay_error(e: &StoreError) -> DurabilityError {
    DurabilityError::Corrupt {
        context: format!("WAL replay failed against store: {e}"),
    }
}

/// Rebuilds a store from the checkpoint and WAL tail in `dir`.
///
/// Recovery invariants:
///
/// - The checkpoint (if any) seeds the store with its exact contents and
///   logical clock; WAL batches with `wave <= checkpoint_wave` are
///   skipped. Within a replayed batch, ops whose timestamp is at or below
///   the checkpoint's clock are skipped too: a checkpoint taken *mid-wave*
///   under concurrent writers is a consistent cut that already contains
///   them.
/// - Each remaining batch is applied atomically: its operations replay
///   with their original timestamps, then the clock is set to the batch's
///   committed clock. Containers named by ops are created on demand — a
///   WAL-only recovery (no checkpoint) recreates only containers that
///   were actually written to.
/// - A torn final record (crash mid-append) is dropped silently; the
///   store converges to the last *complete* commit. Any other damage is a
///   typed [`DurabilityError::Corrupt`] — recovery never panics on bad
///   input.
///
/// # Errors
///
/// Returns an I/O error on filesystem failure or
/// [`DurabilityError::Corrupt`] / [`DurabilityError::UnsupportedVersion`]
/// on invalid content.
#[deprecated(note = "kept only for benchmark/ until its re-baseline, ROADMAP item 3")]
pub fn recover_store(dir: &Path) -> Result<RecoveredStore, DurabilityError> {
    let (store, checkpoint_wave, engine_state) = match read_checkpoint(dir)? {
        Some(ckpt) => {
            let store =
                DataStore::from_state(ckpt.store).map_err(|e| DurabilityError::Corrupt {
                    context: format!("checkpoint store state rejected: {e}"),
                })?;
            (store, ckpt.wave, ckpt.engine)
        }
        None => (DataStore::new(), 0, Vec::new()),
    };

    // The checkpoint's clock is the consistent cut: every op at or below
    // it is already reflected in the checkpointed state.
    let cut = store.clock();
    let wal = read_wal(&dir.join(WAL_FILE))?;
    let mut last_wave = checkpoint_wave;
    for batch in wal.batches.iter().filter(|b| b.wave > checkpoint_wave) {
        // A wave's ops come in runs into one family (a step's writes):
        // each run resolves its family once.
        let mut run: Option<(&str, &str, FamilyHandle<'_>)> = None;
        for op in &batch.ops {
            let (WalOp::Put {
                table,
                family,
                timestamp,
                ..
            }
            | WalOp::Delete {
                table,
                family,
                timestamp,
                ..
            }) = op;
            if *timestamp <= cut {
                continue;
            }
            let target = match &run {
                Some((t, f, target)) if t == table && f == family => target,
                _ => {
                    store
                        .ensure_container(&ContainerRef::family(table, family))
                        .map_err(|e| replay_error(&e))?;
                    let target = store.family(table, family).map_err(|e| replay_error(&e))?;
                    &run.insert((table, family, target)).2
                }
            };
            match op {
                WalOp::Put {
                    row,
                    qualifier,
                    value,
                    ..
                } => target.apply_put(row, qualifier, value.clone(), *timestamp),
                WalOp::Delete { row, qualifier, .. } => target.apply_delete(row, qualifier),
            }
            .map_err(|e| replay_error(&e))?;
        }
        store.set_clock(batch.clock);
        last_wave = batch.wave;
    }

    Ok(RecoveredStore {
        store,
        checkpoint_wave,
        last_wave,
        engine_state,
        torn_tail: wal.torn_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartflux_datastore::Value;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "smartflux-recover-test-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn empty_directory_recovers_to_empty_store() {
        let dir = tmp_dir("empty");
        let r = recover_store(&dir).unwrap();
        assert_eq!(r.checkpoint_wave, 0);
        assert_eq!(r.last_wave, 0);
        assert!(!r.torn_tail);
        assert!(r.store.table_names().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_only_recovery_recreates_logged_containers() {
        use crate::frozen::{DurabilityManager, SyncPolicy};
        use crate::options::DurabilityOptions;

        let dir = tmp_dir("wal-only");
        let mgr =
            DurabilityManager::open(DurabilityOptions::new(&dir).with_sync(SyncPolicy::Never))
                .unwrap();
        let store = DataStore::new();
        store.create_table("t").unwrap();
        store.create_family("t", "written").unwrap();
        store.create_family("t", "untouched").unwrap();
        let _h = mgr.attach(&store);
        store
            .put("t", "written", "r", "q", Value::from(1.0))
            .unwrap();
        mgr.commit_wave(1, store.clock()).unwrap();

        let r = recover_store(&dir).unwrap();
        // Documented deviation: only containers that appear in the log
        // come back from a WAL-only recovery.
        assert!(r.store.has_table("t"));
        assert_eq!(
            r.store.get("t", "written", "r", "q").unwrap(),
            Some(Value::from(1.0))
        );
        assert!(r.store.get("t", "untouched", "r", "q").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
