//! The durability manager: buffers observed writes, group-commits them at
//! wave boundaries, and takes periodic checkpoints.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use smartflux_datastore::{DataStore, ObserverHandle, Value, WriteKind, WriteObserver, WriteRef};
use smartflux_telemetry::{names, Telemetry};

use crate::checkpoint::{checkpoint_wave, write_checkpoint, Checkpoint};
use crate::error::DurabilityError;
use crate::options::DurabilityOptions;
use crate::wal::{encode_op_delete, encode_op_put, Wal};

/// File name of the write-ahead log inside a durability directory.
pub const WAL_FILE: &str = "wal.log";

/// Mutations captured since the last commit, already in WAL wire format.
///
/// Encoding at observation time keeps the write hot path allocation-free:
/// the observer appends ~40 bytes to one growing buffer instead of cloning
/// four strings and a value per mutation.
///
/// Alongside the bytes, the buffer records each op's `(timestamp, start
/// offset)`. Observer callbacks run outside the store's shard guards, so
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

/// Buffers store mutations between wave boundaries and owns the WAL and
/// checkpoint lifecycle.
///
/// The manager hooks the store's [`WriteObserver`] surface: every put and
/// effective delete is captured into an in-memory buffer, and
/// [`commit_wave`] drains the buffer into one atomic, CRC-framed WAL
/// record. [`maybe_checkpoint`] writes a full store snapshot at the
/// configured interval and compacts the WAL prefix it supersedes.
///
/// [`WriteObserver`]: smartflux_datastore::WriteObserver
/// [`commit_wave`]: Self::commit_wave
/// [`maybe_checkpoint`]: Self::maybe_checkpoint
#[derive(Debug)]
pub struct DurabilityManager {
    options: DurabilityOptions,
    wal: Mutex<Wal>,
    buffer: Arc<Mutex<OpBuffer>>,
    telemetry: Telemetry,
    /// Wave of the newest checkpoint known to be durable on disk.
    // tidy:atomic(durable_wave: relaxed): feeds the checkpoint-lag gauge only; no other data is ordered by it
    durable_wave: AtomicU64,
}

impl DurabilityManager {
    /// Opens (creating as needed) the durability directory and its WAL.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the directory or log cannot be created.
    pub fn open(options: DurabilityOptions) -> Result<Self, DurabilityError> {
        std::fs::create_dir_all(options.dir())?;
        let wal = Wal::open(options.dir().join(WAL_FILE), options.sync())?;
        // A checkpoint already in the directory is durable: lag counts
        // from it, not from wave 0.
        let durable_wave = checkpoint_wave(options.dir()).unwrap_or(0);
        Ok(Self {
            options,
            wal: Mutex::new(wal),
            buffer: Arc::new(Mutex::new(OpBuffer::default())),
            telemetry: Telemetry::disabled(),
            durable_wave: AtomicU64::new(durable_wave),
        })
    }

    /// Routes WAL metrics through `telemetry`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The configuration this manager was opened with.
    #[must_use]
    pub fn options(&self) -> &DurabilityOptions {
        &self.options
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
    /// threads write the sharded store at once) are re-sorted so replay
    /// applies them as the store did.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the append or fsync fails. The buffered
    /// operations are dropped either way — a failed commit means the
    /// process should fall back to non-durable operation, not retry into
    /// a misordered log.
    pub fn commit_wave(&self, wave: u64, clock: u64) -> Result<(), DurabilityError> {
        // Commit runs on the scheduler thread while the wave span is still
        // open, so this span parents under the wave's trace root.
        let _commit_span = self.telemetry.span(names::WAL_COMMIT_LATENCY, wave);
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
        let outcome = appended?;
        if self.telemetry.is_enabled() {
            self.telemetry.counter(names::WAL_RECORDS).incr();
            self.telemetry.counter(names::WAL_BYTES).add(outcome.bytes);
            self.telemetry
                .gauge(names::CHECKPOINT_LAG_WAVES)
                .set(i64::try_from(self.checkpoint_lag_waves(wave)).unwrap_or(i64::MAX));
            if outcome.synced {
                self.telemetry
                    .histogram(names::FSYNC_LATENCY)
                    .record_ns(outcome.sync_nanos);
            }
        }
        Ok(())
    }

    /// Takes a checkpoint if `wave` falls on the configured interval;
    /// `engine` is asked for its state only then.
    ///
    /// Returns `true` if a checkpoint was written.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if writing the checkpoint or compacting the
    /// WAL fails.
    pub fn maybe_checkpoint(
        &self,
        wave: u64,
        store: &DataStore,
        engine: impl FnOnce() -> Vec<u8>,
    ) -> Result<bool, DurabilityError> {
        if wave == 0 || !wave.is_multiple_of(self.options.checkpoint_interval()) {
            return Ok(false);
        }
        self.take_checkpoint(wave, store, engine)?;
        Ok(true)
    }

    /// Unconditionally checkpoints the full store plus `engine` state at
    /// wave `wave`, then compacts the WAL prefix the checkpoint covers —
    /// in that order: the log's prefix is only superseded once the rename
    /// (and the directory entry) are on disk, so a crash in between finds
    /// either the old checkpoint with the whole log, or the new one with
    /// a prefix recovery skips.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if writing or compaction fails.
    pub fn checkpoint(
        &self,
        wave: u64,
        store: &DataStore,
        engine: Vec<u8>,
    ) -> Result<(), DurabilityError> {
        self.take_checkpoint(wave, store, || engine)
    }

    fn take_checkpoint(
        &self,
        wave: u64,
        store: &DataStore,
        engine: impl FnOnce() -> Vec<u8>,
    ) -> Result<(), DurabilityError> {
        let _checkpoint_span = self.telemetry.span(names::CHECKPOINT_WRITE_LATENCY, wave);
        let checkpoint = {
            let _capture_span = self.telemetry.span(names::CHECKPOINT_CAPTURE_LATENCY, wave);
            // One export only: `export_state` quiesces writers and
            // captures state and clock as a single consistent cut. Reading
            // the clock separately could pair a newer clock with older
            // data under concurrent writers.
            let state = store.export_state();
            Checkpoint {
                wave,
                clock: state.clock,
                store: state,
                engine: engine(),
            }
        };
        write_checkpoint(self.options.dir(), &checkpoint)?;
        self.durable_wave.store(wave, Ordering::Relaxed);
        {
            let _compact_span = self.telemetry.span(names::WAL_COMPACT_LATENCY, wave);
            self.wal.lock().compact(wave)?;
        }
        if self.telemetry.is_enabled() {
            self.telemetry.counter(names::CHECKPOINTS).incr();
        }
        Ok(())
    }

    /// Waves committed since the newest durable checkpoint, as of `wave`.
    #[must_use]
    pub fn checkpoint_lag_waves(&self, wave: u64) -> u64 {
        wave.saturating_sub(self.durable_wave.load(Ordering::Relaxed))
    }

    /// Truncates the WAL to empty and drops the buffered operations.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the truncation fails.
    pub fn reset_wal(&self) -> Result<(), DurabilityError> {
        *self.buffer.lock() = OpBuffer::default();
        self.wal.lock().reset()
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
    use crate::recover::recover_store;
    use crate::SyncPolicy;
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

    #[test]
    fn checkpoint_compacts_wal_and_recovery_uses_both() {
        let dir = tmp_dir("checkpoint");
        let mgr = DurabilityManager::open(
            DurabilityOptions::new(&dir)
                .with_sync(SyncPolicy::Never)
                .with_checkpoint_interval(2),
        )
        .unwrap();
        let store = store_with_tf();
        let _handle = mgr.attach(&store);

        for wave in 1..=5u64 {
            store
                .put("t", "f", "r", "q", Value::from(wave as f64))
                .unwrap();
            mgr.commit_wave(wave, store.clock()).unwrap();
            let written = mgr
                .maybe_checkpoint(wave, &store, || vec![wave as u8])
                .unwrap();
            assert_eq!(written, wave % 2 == 0);
        }
        // Last checkpoint was at wave 4; the WAL holds only wave 5.
        let read = crate::wal::read_wal(&dir.join(WAL_FILE)).unwrap();
        assert_eq!(
            read.batches.iter().map(|b| b.wave).collect::<Vec<_>>(),
            vec![5]
        );

        let recovered = recover_store(&dir).unwrap();
        assert_eq!(recovered.checkpoint_wave, 4);
        assert_eq!(recovered.last_wave, 5);
        assert_eq!(recovered.engine_state, vec![4u8]);
        assert_eq!(
            recovered.store.get("t", "f", "r", "q").unwrap(),
            Some(Value::from(5.0))
        );
        assert_eq!(recovered.store.clock(), store.clock());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_lag_counts_from_the_newest_durable_checkpoint() {
        let dir = tmp_dir("lag");
        let options = DurabilityOptions::new(&dir)
            .with_sync(SyncPolicy::Never)
            .with_checkpoint_interval(2);
        let mut mgr = DurabilityManager::open(options.clone()).unwrap();
        let telemetry = Telemetry::enabled();
        mgr.set_telemetry(telemetry.clone());
        let store = store_with_tf();
        let _handle = mgr.attach(&store);
        let lag = || telemetry.snapshot().gauge(names::CHECKPOINT_LAG_WAVES);
        let wave = |mgr: &DurabilityManager, wave: u64| {
            store
                .put("t", "f", "r", "q", Value::from(wave as f64))
                .unwrap();
            mgr.commit_wave(wave, store.clock()).unwrap();
            mgr.maybe_checkpoint(wave, &store, Vec::new)
        };
        for w in 1..=3 {
            wave(&mgr, w).unwrap();
        }
        // Sampled at the commit, before wave 2's checkpoint: 1, 2, 1.
        assert_eq!(lag(), 1);
        assert_eq!(mgr.checkpoint_lag_waves(3), 1);

        // A checkpoint that fails is not durable: the lag keeps counting
        // from the last one that is.
        let squatter = dir.join(format!("{}.tmp", crate::CHECKPOINT_FILE));
        std::fs::create_dir(&squatter).unwrap();
        assert!(wave(&mgr, 4).is_err());
        wave(&mgr, 5).unwrap();
        assert_eq!(lag(), 3);
        std::fs::remove_dir(&squatter).unwrap();

        // A reopened manager finds the checkpoint on disk.
        drop(mgr);
        let mgr = DurabilityManager::open(options).unwrap();
        assert_eq!(mgr.checkpoint_lag_waves(5), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_wal_clears_pending_and_log() {
        let dir = tmp_dir("reset");
        let mgr =
            DurabilityManager::open(DurabilityOptions::new(&dir).with_sync(SyncPolicy::Never))
                .unwrap();
        let store = store_with_tf();
        let _handle = mgr.attach(&store);
        store.put("t", "f", "r", "q", Value::from(1.0)).unwrap();
        mgr.commit_wave(1, store.clock()).unwrap();
        store.put("t", "f", "r", "q", Value::from(2.0)).unwrap();
        mgr.reset_wal().unwrap();
        assert_eq!(mgr.pending_ops(), 0);
        assert_eq!(mgr.wal_len().unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn telemetry_counters_track_wal_activity() {
        let dir = tmp_dir("telemetry");
        let mut mgr =
            DurabilityManager::open(DurabilityOptions::new(&dir).with_sync(SyncPolicy::Always))
                .unwrap();
        let telemetry = Telemetry::enabled();
        mgr.set_telemetry(telemetry.clone());
        let store = store_with_tf();
        let _handle = mgr.attach(&store);
        store.put("t", "f", "r", "q", Value::from(1.0)).unwrap();
        mgr.commit_wave(1, store.clock()).unwrap();
        mgr.checkpoint(1, &store, Vec::new()).unwrap();

        let snap = telemetry.snapshot();
        assert_eq!(snap.counter(names::WAL_RECORDS), 1);
        assert!(snap.counter(names::WAL_BYTES) > 8);
        assert_eq!(snap.counter(names::CHECKPOINTS), 1);
        assert!(snap.histogram(names::FSYNC_LATENCY).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
