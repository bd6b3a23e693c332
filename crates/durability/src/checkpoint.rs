//! Checkpoint files — a full store snapshot plus opaque engine state —
//! and the [`Checkpointer`] that writes them on a wave interval.
//!
//! A checkpoint is a single file of three CRC frames:
//!
//! ```text
//! frame(meta)   := "SFCP" | version:u16 | wave:u64 | clock:u64
//! frame(store)  := clock:u64 | n_tables:u32 | (name | n_families:u32 |
//!                    (name | n_cells:u32 | (row | qualifier | ts:u64 | value)*)*)*
//! frame(engine) := opaque engine bytes (may be empty)
//! ```
//!
//! A checkpoint does not outlive the binary that wrote it: a file of any
//! other version is refused as [`DurabilityError::UnsupportedVersion`], and
//! there is no migration.
//!
//! The file is written to a temporary name, fsynced, and atomically
//! renamed over the previous checkpoint, so there is always at most one
//! valid checkpoint and never a half-written one. Because of the rename,
//! *any* damage — including truncation — reads as
//! [`DurabilityError::Corrupt`], unlike the WAL where a torn tail is
//! expected.

use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use smartflux_datastore::{CellState, DataStore, FamilyState, StoreState, TableState};
use smartflux_telemetry::{names, Telemetry};

use crate::codec::{
    put_str, put_u16, put_u32, put_u64, put_value, read_frame, write_frame, FrameRead, Reader,
    FRAME_HEADER,
};
use crate::error::DurabilityError;
use crate::options::DurabilityOptions;

/// File name of the checkpoint inside a durability directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.ckpt";

const MAGIC: &[u8; 4] = b"SFCP";
const VERSION: u16 = 2;
/// Bytes of the meta frame's payload.
const META_LEN: usize = 22;

/// A decoded checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Wave at whose end the checkpoint was taken.
    pub wave: u64,
    /// Store logical clock at checkpoint time.
    pub clock: u64,
    /// Full store contents.
    pub store: StoreState,
    /// Opaque engine state (the `smartflux` crate's checkpoint codec owns
    /// this format; empty for store-only durability).
    pub engine: Vec<u8>,
}

/// Encodes a full [`StoreState`] into the canonical durable byte form
/// (the checkpoint's store frame). Public so other wire formats — the
/// `smartflux-net` protocol ships exact store images for equivalence
/// checks — reuse this encoding instead of inventing a second one.
#[must_use]
pub fn encode_store_state(state: &StoreState) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, state.clock);
    put_u32(&mut out, state.tables.len() as u32);
    for table in &state.tables {
        put_str(&mut out, &table.name);
        put_u32(&mut out, table.families.len() as u32);
        for family in &table.families {
            put_str(&mut out, &family.name);
            put_u32(&mut out, family.cells.len() as u32);
            for cell in &family.cells {
                let [(ts, value)] = &cell.versions;
                put_str(&mut out, &cell.row);
                put_str(&mut out, &cell.qualifier);
                put_u64(&mut out, *ts);
                put_value(&mut out, value);
            }
        }
    }
    out
}

/// Fewest bytes an encoded table or family (empty name, no children) and an
/// encoded cell (empty keys, an empty text) take: a decoded count reserves
/// for no more items than the bytes still unread could hold.
const MIN_GROUP_BYTES: usize = 8;
const MIN_CELL_BYTES: usize = 21;

/// Decodes a [`StoreState`] produced by [`encode_store_state`].
///
/// # Errors
///
/// Returns [`DurabilityError::Corrupt`] on truncation, trailing bytes, or
/// malformed values; never panics on malformed input.
pub fn decode_store_state(payload: &[u8]) -> Result<StoreState, DurabilityError> {
    let mut r = Reader::new(payload);
    let clock = r.u64()?;
    let n_tables = r.u32()? as usize;
    let mut tables = Vec::with_capacity(n_tables.min(r.remaining() / MIN_GROUP_BYTES));
    for _ in 0..n_tables {
        let name = r.str()?;
        let n_families = r.u32()? as usize;
        let mut families = Vec::with_capacity(n_families.min(r.remaining() / MIN_GROUP_BYTES));
        for _ in 0..n_families {
            let fname = r.str()?;
            let n_cells = r.u32()? as usize;
            let mut cells = Vec::with_capacity(n_cells.min(r.remaining() / MIN_CELL_BYTES));
            for _ in 0..n_cells {
                let row = r.str()?;
                let qualifier = r.str()?;
                let ts = r.u64()?;
                cells.push(CellState {
                    row,
                    qualifier,
                    versions: [(ts, r.value()?)],
                });
            }
            families.push(FamilyState { name: fname, cells });
        }
        tables.push(TableState { name, families });
    }
    if !r.is_exhausted() {
        return Err(DurabilityError::Corrupt {
            context: format!("{} trailing bytes after store state", r.remaining()),
        });
    }
    Ok(StoreState { clock, tables })
}

/// Writes `checkpoint` into `dir` atomically, returning the file size.
///
/// # Errors
///
/// Returns an I/O error if writing, syncing or renaming fails.
pub fn write_checkpoint(dir: &Path, checkpoint: &Checkpoint) -> Result<u64, DurabilityError> {
    let mut meta = Vec::with_capacity(META_LEN);
    meta.extend_from_slice(MAGIC);
    put_u16(&mut meta, VERSION);
    put_u64(&mut meta, checkpoint.wave);
    put_u64(&mut meta, checkpoint.clock);

    let mut buf = Vec::new();
    write_frame(&mut buf, &meta);
    write_frame(&mut buf, &encode_store_state(&checkpoint.store));
    write_frame(&mut buf, &checkpoint.engine);

    let tmp = dir.join(format!("{CHECKPOINT_FILE}.tmp"));
    let dst = dir.join(CHECKPOINT_FILE);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&buf)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, &dst)?;
    // Best-effort directory fsync so the rename itself is durable. Some
    // filesystems refuse to open directories for writing; that is fine.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(buf.len() as u64)
}

/// Reads the checkpoint from `dir`, or `None` if none was ever written.
///
/// # Errors
///
/// Returns an I/O error on read failure, [`DurabilityError::Corrupt`] on
/// any validation failure, or [`DurabilityError::UnsupportedVersion`] for
/// a future format version.
pub fn read_checkpoint(dir: &Path) -> Result<Option<Checkpoint>, DurabilityError> {
    let path = dir.join(CHECKPOINT_FILE);
    let mut buf = Vec::new();
    match File::open(&path) {
        Ok(mut f) => {
            f.read_to_end(&mut buf)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    }

    let mut frames = Vec::with_capacity(3);
    let mut pos = 0;
    loop {
        match read_frame(&buf, pos)? {
            FrameRead::Frame { payload, next } => {
                frames.push(payload);
                pos = next;
            }
            FrameRead::End => break,
            FrameRead::Torn => {
                return Err(DurabilityError::Corrupt {
                    context: "checkpoint file is truncated".to_owned(),
                })
            }
        }
    }
    if frames.len() != 3 {
        return Err(DurabilityError::Corrupt {
            context: format!("checkpoint has {} frames, expected 3", frames.len()),
        });
    }

    let (wave, clock) = decode_meta(frames[0])?;
    Ok(Some(Checkpoint {
        wave,
        clock,
        store: decode_store_state(frames[1])?,
        engine: frames[2].to_vec(),
    }))
}

/// Decodes the meta frame's payload into `(wave, clock)`.
fn decode_meta(payload: &[u8]) -> Result<(u64, u64), DurabilityError> {
    let mut meta = Reader::new(payload);
    let magic = [meta.u8()?, meta.u8()?, meta.u8()?, meta.u8()?];
    if &magic != MAGIC {
        return Err(DurabilityError::Corrupt {
            context: "checkpoint magic mismatch".to_owned(),
        });
    }
    let version = meta.u16()?;
    if version != VERSION {
        return Err(DurabilityError::UnsupportedVersion { found: version });
    }
    Ok((meta.u64()?, meta.u64()?))
}

/// The wave of the checkpoint in `dir`, read from the meta frame alone;
/// `None` when there is no checkpoint or its head does not read as one
/// (recovery is where damage gets reported).
fn checkpoint_wave(dir: &Path) -> Option<u64> {
    let mut head = [0u8; FRAME_HEADER + META_LEN];
    File::open(dir.join(CHECKPOINT_FILE))
        .ok()?
        .read_exact(&mut head)
        .ok()?;
    match read_frame(&head, 0) {
        Ok(FrameRead::Frame { payload, .. }) => decode_meta(payload).ok().map(|(wave, _)| wave),
        _ => None,
    }
}

/// Writes a checkpoint every [`DurabilityOptions::checkpoint_interval`]
/// waves into one durability directory, and tracks how far the newest
/// durable one lags the running wave.
///
/// This is what a durable engine session holds: it logs no store
/// mutation, and recovery resumes from the checkpoint because the waves
/// after it re-execute deterministically.
#[derive(Debug)]
pub struct Checkpointer {
    options: DurabilityOptions,
    telemetry: Telemetry,
    /// Wave of the newest checkpoint known to be durable on disk.
    // tidy:atomic(durable_wave: relaxed): feeds the checkpoint-lag gauge only; no other data is ordered by it
    durable_wave: AtomicU64,
}

impl Checkpointer {
    /// Opens (creating as needed) the durability directory.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the directory cannot be created.
    pub fn open(options: DurabilityOptions) -> Result<Self, DurabilityError> {
        std::fs::create_dir_all(options.dir())?;
        // A checkpoint already in the directory is durable: lag counts
        // from it, not from wave 0.
        let durable_wave = checkpoint_wave(options.dir()).unwrap_or(0);
        Ok(Self {
            options,
            telemetry: Telemetry::disabled(),
            durable_wave: AtomicU64::new(durable_wave),
        })
    }

    /// Routes the checkpoint spans and counter through `telemetry`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The configuration this checkpointer was opened with.
    #[must_use]
    pub fn options(&self) -> &DurabilityOptions {
        &self.options
    }

    /// Takes a checkpoint if `wave` falls on the configured interval;
    /// `engine` is asked for its state only then.
    ///
    /// Returns `true` if a checkpoint was written.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if writing the checkpoint fails.
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
    /// wave `wave`.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if writing the checkpoint fails.
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
        if self.telemetry.is_enabled() {
            self.telemetry.counter(names::CHECKPOINTS).incr();
        }
        Ok(())
    }

    /// Waves completed since the newest durable checkpoint, as of `wave`.
    #[must_use]
    pub fn checkpoint_lag_waves(&self, wave: u64) -> u64 {
        wave.saturating_sub(self.durable_wave.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartflux_datastore::{DataStore, Value};
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("smartflux-ckpt-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_checkpoint() -> Checkpoint {
        let store = DataStore::new();
        store.create_table("t").unwrap();
        store.create_family("t", "f").unwrap();
        store.put("t", "f", "r", "q", Value::from(1.5)).unwrap();
        store.put("t", "f", "r", "q", Value::from(2.5)).unwrap();
        store.put("t", "f", "r2", "name", Value::from("x")).unwrap();
        Checkpoint {
            wave: 42,
            clock: store.clock(),
            store: store.export_state(),
            engine: vec![9, 8, 7],
        }
    }

    #[test]
    fn checkpoint_roundtrips() {
        let dir = tmp_dir("roundtrip");
        let ckpt = sample_checkpoint();
        let bytes = write_checkpoint(&dir, &ckpt).unwrap();
        assert!(bytes > 0);
        let restored = read_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(restored, ckpt);
        // A second checkpoint atomically replaces the first.
        let mut ckpt2 = sample_checkpoint();
        ckpt2.wave = 84;
        write_checkpoint(&dir, &ckpt2).unwrap();
        assert_eq!(read_checkpoint(&dir).unwrap().unwrap().wave, 84);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn absent_checkpoint_reads_as_none() {
        let dir = tmp_dir("absent");
        assert_eq!(read_checkpoint(&dir).unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn other_versions_are_rejected() {
        let dir = tmp_dir("version");
        for version in [VERSION - 1, VERSION + 1] {
            let mut meta = Vec::new();
            meta.extend_from_slice(MAGIC);
            put_u16(&mut meta, version);
            put_u64(&mut meta, 0);
            put_u64(&mut meta, 0);
            let mut buf = Vec::new();
            write_frame(&mut buf, &meta);
            write_frame(&mut buf, &[]);
            write_frame(&mut buf, &[]);
            std::fs::write(dir.join(CHECKPOINT_FILE), &buf).unwrap();
            assert!(matches!(
                read_checkpoint(&dir),
                Err(DurabilityError::UnsupportedVersion { found }) if found == version
            ));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpointer_lag_counts_from_the_newest_durable_checkpoint() {
        let dir = tmp_dir("lag");
        let options = DurabilityOptions::new(&dir).with_checkpoint_interval(2);
        let checkpointer = Checkpointer::open(options.clone()).unwrap();
        let store = DataStore::new();
        for wave in 1..=3 {
            let written = checkpointer.maybe_checkpoint(wave, &store, || vec![wave as u8]);
            assert_eq!(written.unwrap(), wave == 2);
        }
        assert_eq!(checkpointer.checkpoint_lag_waves(3), 1);
        assert_eq!(read_checkpoint(&dir).unwrap().unwrap().engine, vec![2]);
        // A checkpoint that fails is not durable.
        let squatter = dir.join(format!("{CHECKPOINT_FILE}.tmp"));
        std::fs::create_dir(&squatter).unwrap();
        assert!(checkpointer.checkpoint(4, &store, Vec::new()).is_err());
        assert_eq!(checkpointer.checkpoint_lag_waves(5), 3);
        std::fs::remove_dir(&squatter).unwrap();
        // A reopened checkpointer finds the checkpoint on disk; the
        // directory holds nothing else.
        let checkpointer = Checkpointer::open(options).unwrap();
        assert_eq!(checkpointer.checkpoint_lag_waves(5), 3);
        checkpointer.checkpoint(5, &store, Vec::new()).unwrap();
        assert_eq!(checkpointer.checkpoint_lag_waves(5), 0);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
