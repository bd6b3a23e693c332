//! The store-level write-ahead log's manager: buffers observed writes and
//! group-commits them at wave boundaries. It takes no checkpoint; a
//! [`Checkpointer`](crate::Checkpointer) beside it does, and recovery
//! skips the waves that checkpoint covers.

use std::sync::Arc;

use parking_lot::Mutex;
use smartflux_datastore::{DataStore, ObserverHandle, Value, WriteKind, WriteObserver, WriteRef};

use super::wal::{encode_op_delete, encode_op_put, Wal};
use crate::error::DurabilityError;
use crate::options::DurabilityOptions;

/// File name of the write-ahead log inside a durability directory.
#[deprecated(note = "kept only for benchmark/ until its re-baseline, ROADMAP item 3")]
pub const WAL_FILE: &str = "wal.log";

/// Mutations captured since the last commit, already in WAL wire format.
///
/// Encoding at observation time keeps the write hot path allocation-free:
/// the observer appends ~40 bytes to one growing buffer instead of cloning
/// four strings and a value per mutation.
///
/// Alongside the bytes, the buffer records each op's `(timestamp, start
/// offset)`. Observer callbacks run outside the store's guard, so
/// when two threads write the same cell concurrently their writes can
/// reach this buffer with their encodings swapped relative to their store timestamps; replay
/// applies ops in buffer order, which would then resurrect the older
/// value. [`commit_wave`](DurabilityManager::commit_wave) restores
/// timestamp order before the batch hits the log.
#[derive(Debug, Default)]
struct OpBuffer {
    bytes: Vec<u8>,
    ops: Vec<(u64, usize)>,
}

/// The write-capture observer: encodes each mutation, read in place from
/// the borrowed event, onto the end of the shared [`OpBuffer`].
struct WalCapture {
    buffer: Arc<Mutex<OpBuffer>>,
}

impl WriteObserver for WalCapture {
    fn on_write(&self, event: &WriteRef<'_>) {
        let mut buf = self.buffer.lock();
        let start = buf.bytes.len();
        buf.ops.push((event.timestamp, start));
        match event.kind {
            WriteKind::Put => encode_op_put(
                &mut buf.bytes,
                event.table,
                event.family,
                event.row,
                event.qualifier,
                event.timestamp,
                // A put always carries a new value; tolerate a
                // malformed event rather than dropping the op.
                event.new.unwrap_or(&Value::I64(0)),
            ),
            WriteKind::Delete => encode_op_delete(
                &mut buf.bytes,
                event.table,
                event.family,
                event.row,
                event.qualifier,
                event.timestamp,
            ),
        }
    }
}

/// Reorders a captured batch into timestamp order.
///
/// `ops` holds `(timestamp, start offset)` per op; an op's encoding ends
/// where the next one starts. Timestamps are unique (one logical-clock
/// tick per mutation), so the order is total.
fn sort_batch(bytes: &[u8], ops: &[(u64, usize)]) -> Vec<u8> {
    let mut order: Vec<usize> = (0..ops.len()).collect();
    order.sort_by_key(|&i| ops[i].0);
    let mut sorted = Vec::with_capacity(bytes.len());
    for &i in &order {
        let start = ops[i].1;
        let end = ops.get(i + 1).map_or(bytes.len(), |op| op.1);
        sorted.extend_from_slice(&bytes[start..end]);
    }
    sorted
}

/// The store-op WAL: every put and effective delete on an attached store
/// is captured into an in-memory buffer, and [`commit_wave`] drains the
/// buffer into one atomic, CRC-framed WAL record.
///
/// [`commit_wave`]: Self::commit_wave
#[deprecated(note = "kept only for benchmark/ until its re-baseline, ROADMAP item 3")]
#[derive(Debug)]
pub struct DurabilityManager {
    wal: Mutex<Wal>,
    buffer: Arc<Mutex<OpBuffer>>,
}

impl DurabilityManager {
    /// Opens (creating as needed) the durability directory and its WAL.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the directory or log cannot be created, or
    /// [`DurabilityError::Corrupt`] if a complete frame of an existing log
    /// fails its CRC.
    pub fn open(options: DurabilityOptions) -> Result<Self, DurabilityError> {
        std::fs::create_dir_all(options.dir())?;
        Ok(Self {
            wal: Mutex::new(Wal::open(&options.dir().join(WAL_FILE), options.sync())?),
            buffer: Arc::new(Mutex::new(OpBuffer::default())),
        })
    }

    /// Registers the write-capture observer on `store`.
    ///
    /// Every mutation notified after this call is buffered until the next
    /// [`commit_wave`](Self::commit_wave).
    pub fn attach(&self, store: &DataStore) -> ObserverHandle {
        store.register_observer(Arc::new(WalCapture {
            buffer: Arc::clone(&self.buffer),
        }))
    }

    /// Number of buffered, not-yet-committed operations.
    #[must_use]
    pub fn pending_ops(&self) -> usize {
        self.buffer.lock().ops.len()
    }

    /// Group-commits all buffered operations as wave `wave`'s batch.
    ///
    /// `clock` must be the store's logical clock at the wave boundary;
    /// replay restores it after applying the batch. Empty batches are
    /// committed too, so clock advances from no-op deletes survive a
    /// crash. Ops captured out of timestamp order (possible when several
    /// threads write the store at once) are re-sorted so replay
    /// applies them as the store did.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the append or fsync fails. The buffered
    /// operations are dropped either way — a failed commit means the
    /// process should fall back to non-durable operation, not retry into
    /// a misordered log.
    pub fn commit_wave(&self, wave: u64, clock: u64) -> Result<(), DurabilityError> {
        let mut batch = std::mem::take(&mut *self.buffer.lock());
        let count = u32::try_from(batch.ops.len()).unwrap_or(u32::MAX);
        let sorted;
        let bytes = if batch.ops.windows(2).all(|pair| pair[0].0 <= pair[1].0) {
            &batch.bytes
        } else {
            sorted = sort_batch(&batch.bytes, &batch.ops);
            &sorted
        };
        let appended = self.wal.lock().append_encoded(wave, clock, count, bytes);
        // Hand the grown buffers back, so the next wave's capture appends
        // into capacity this one already paid for — unless a writer got in
        // first, whose ops must stay.
        batch.bytes.clear();
        batch.ops.clear();
        {
            let mut live = self.buffer.lock();
            if live.ops.is_empty() {
                *live = batch;
            }
        }
        appended
    }

    /// Current WAL length in bytes.
    ///
    /// # Errors
    ///
    /// None today — the log tracks its own length; the signature is kept
    /// for callers written when this read the file's metadata.
    pub fn wal_len(&self) -> Result<u64, DurabilityError> {
        Ok(self.wal.lock().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::recover::recover_store;
    use crate::frozen::SyncPolicy;
    use smartflux_datastore::Value;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("smartflux-mgr-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn store_with_tf() -> DataStore {
        let s = DataStore::new();
        s.create_table("t").unwrap();
        s.create_family("t", "f").unwrap();
        s
    }

    #[test]
    fn sort_batch_restores_timestamp_order() {
        // Three ops captured in order ts=3, ts=1, ts=2 with distinct
        // encodings of varying length.
        let mut bytes = Vec::new();
        let mut ops = Vec::new();
        for (ts, payload) in [(3u64, &b"ccc"[..]), (1, b"a"), (2, b"bb")] {
            ops.push((ts, bytes.len()));
            bytes.extend_from_slice(payload);
        }
        assert_eq!(sort_batch(&bytes, &ops), b"abbccc");
        // An already-ordered batch is the identity.
        let ordered = vec![(1u64, 0usize), (2, 1), (3, 3)];
        assert_eq!(sort_batch(b"abbccc", &ordered), b"abbccc");
        // Empty batch.
        assert!(sort_batch(&[], &[]).is_empty());
    }

    #[test]
    fn observed_writes_commit_and_recover() {
        let dir = tmp_dir("commit");
        let mgr =
            DurabilityManager::open(DurabilityOptions::new(&dir).with_sync(SyncPolicy::Never))
                .unwrap();
        let store = store_with_tf();
        let _handle = mgr.attach(&store);

        store.put("t", "f", "r", "q", Value::from(1.0)).unwrap();
        store.put("t", "f", "r", "q2", Value::from(2.0)).unwrap();
        assert_eq!(mgr.pending_ops(), 2);
        mgr.commit_wave(1, store.clock()).unwrap();
        assert_eq!(mgr.pending_ops(), 0);

        store.delete("t", "f", "r", "q2").unwrap();
        // A delete of an absent cell bumps the clock without an op.
        store.delete("t", "f", "r", "nope").unwrap();
        mgr.commit_wave(2, store.clock()).unwrap();

        let recovered = recover_store(&dir).unwrap();
        assert_eq!(recovered.last_wave, 2);
        assert_eq!(recovered.checkpoint_wave, 0);
        assert!(!recovered.torn_tail);
        assert_eq!(recovered.store.clock(), store.clock());
        assert_eq!(
            recovered.store.get("t", "f", "r", "q").unwrap(),
            Some(Value::from(1.0))
        );
        assert_eq!(recovered.store.get("t", "f", "r", "q2").unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
