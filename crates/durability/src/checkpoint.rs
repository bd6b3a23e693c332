//! Checkpoint files — a full store snapshot plus opaque engine state —
//! and the [`Checkpointer`] that writes them on a wave interval.
//!
//! A checkpoint is a single file of three CRC frames:
//!
//! ```text
//! frame(meta)   := "SFCP" | version:u16 | wave:u64 | clock:u64 | len:u64
//! frame(store)  := clock:u64 | n_tables:u32 | (name | n_families:u32 |
//!                    (name | n_cells:u32 | (row | qualifier | ts:u64 | value)*)*)*
//! frame(engine) := opaque engine bytes (may be empty)
//! ```
//!
//! `len` is the checkpoint's byte length: the three frames end exactly
//! there, and whatever the file holds past it is a stale tail that reading
//! ignores. A checkpoint does not outlive the binary that wrote it: a file
//! of any other version is refused as
//! [`DurabilityError::UnsupportedVersion`], and there is no migration.
//!
//! The previous checkpoint's file is kept as a spare, `checkpoint.ckpt.tmp`.
//! A checkpoint overwrites the spare in place — never shrinking it — and
//! fsyncs it, then swaps it with the live file by a hard link and two
//! renames, and syncs the directory. Nothing is unlinked, so no block is
//! freed: on a filesystem that discards freed blocks, a sync after a free
//! costs tens of milliseconds. There is always at most one valid checkpoint
//! at `checkpoint.ckpt` and never a half-written one. Because of the
//! renames, *any* damage inside `len` — including truncation — reads as
//! [`DurabilityError::Corrupt`], unlike the WAL where a torn tail is
//! expected.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
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
const VERSION: u16 = 3;
/// Bytes of the meta frame's payload.
const META_LEN: usize = 30;
/// The previous checkpoint's file, overwritten by the next one.
const SPARE_FILE: &str = "checkpoint.ckpt.tmp";
/// A second name for the live checkpoint while the spare replaces it.
const PREV_FILE: &str = "checkpoint.ckpt.prev";

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

/// Writes `checkpoint` into `dir` atomically, returning its length in
/// bytes. The file may be longer: it is the previous checkpoint's,
/// overwritten in place, and keeps any tail past the new length.
///
/// # Errors
///
/// Returns an I/O error if writing, syncing or renaming fails.
pub fn write_checkpoint(dir: &Path, checkpoint: &Checkpoint) -> Result<u64, DurabilityError> {
    let store = encode_store_state(&checkpoint.store);
    let len = 3 * FRAME_HEADER + META_LEN + store.len() + checkpoint.engine.len();
    let mut meta = Vec::with_capacity(META_LEN);
    meta.extend_from_slice(MAGIC);
    put_u16(&mut meta, VERSION);
    put_u64(&mut meta, checkpoint.wave);
    put_u64(&mut meta, checkpoint.clock);
    put_u64(&mut meta, len as u64);

    let mut buf = Vec::with_capacity(len);
    write_frame(&mut buf, &meta);
    write_frame(&mut buf, &store);
    write_frame(&mut buf, &checkpoint.engine);

    let live = dir.join(CHECKPOINT_FILE);
    let spare = dir.join(SPARE_FILE);
    let prev = dir.join(PREV_FILE);
    // A crash inside the swap below can leave `.prev`. Beside a spare it is
    // a second name of the live file (the crash came before the first
    // rename) and goes; alone it is the old checkpoint (after it) and is
    // the spare.
    if std::fs::symlink_metadata(&prev).is_ok() {
        if std::fs::symlink_metadata(&spare).is_ok() {
            std::fs::remove_file(&prev)?;
        } else {
            std::fs::rename(&prev, &spare)?;
        }
    }
    {
        let mut f = open_spare(&spare)?;
        f.write_all(&buf)?;
        f.sync_data()?;
    }
    if std::fs::hard_link(&live, &prev).is_ok() {
        std::fs::rename(&spare, &live)?;
        std::fs::rename(&prev, &spare)?;
    } else {
        // No live checkpoint yet, or no hard links on this filesystem.
        std::fs::rename(&spare, &live)?;
    }
    sync_dir(dir)?;
    Ok(buf.len() as u64)
}

/// Opens the spare for an overwrite at offset 0 without truncating it,
/// creating it if absent. A spare with a second name is replaced by a
/// fresh file first, so the overwrite never reaches another file's bytes.
fn open_spare(spare: &Path) -> io::Result<File> {
    let f = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(spare)?;
    if !has_other_names(&f)? {
        return Ok(f);
    }
    drop(f);
    std::fs::remove_file(spare)?;
    OpenOptions::new().write(true).create_new(true).open(spare)
}

#[cfg(unix)]
fn has_other_names(f: &File) -> io::Result<bool> {
    use std::os::unix::fs::MetadataExt;
    Ok(f.metadata()?.nlink() > 1)
}

/// Without a portable link count, every spare may have another name.
#[cfg(not(unix))]
fn has_other_names(_: &File) -> io::Result<bool> {
    Ok(true)
}

/// Syncs `dir`, which makes the renames in it durable. A directory that
/// cannot be opened is tolerated, as is a filesystem that cannot sync one.
fn sync_dir(dir: &Path) -> io::Result<()> {
    match File::open(dir) {
        Ok(d) => d.sync_all().or_else(tolerate_unsupported_sync),
        Err(_) => Ok(()),
    }
}

/// Whether a directory sync's error still lets the checkpoint count as
/// written: only when the filesystem reports the sync as unsupported.
fn tolerate_unsupported_sync(e: io::Error) -> io::Result<()> {
    match e.kind() {
        io::ErrorKind::Unsupported | io::ErrorKind::InvalidInput => Ok(()),
        _ => Err(e),
    }
}

/// Reads the checkpoint from `dir`, or `None` if none was ever written.
///
/// # Errors
///
/// Returns an I/O error on read failure, [`DurabilityError::Corrupt`] on
/// any validation failure, or [`DurabilityError::UnsupportedVersion`] for
/// a format version other than this build's.
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

    let truncated = || DurabilityError::Corrupt {
        context: "checkpoint file is truncated".to_owned(),
    };
    let FrameRead::Frame { payload, .. } = read_frame(&buf, 0)? else {
        return Err(truncated());
    };
    let meta = decode_meta(payload)?;
    let len = usize::try_from(meta.len)
        .ok()
        .filter(|&len| len <= buf.len())
        .ok_or_else(truncated)?;
    let checkpoint = &buf[..len];
    let mut frames = [&[][..]; 3];
    let mut pos = 0;
    for frame in &mut frames {
        match read_frame(checkpoint, pos)? {
            FrameRead::Frame { payload, next } => {
                *frame = payload;
                pos = next;
            }
            FrameRead::End | FrameRead::Torn => {
                return Err(DurabilityError::Corrupt {
                    context: format!("checkpoint frames end before its length {len}"),
                })
            }
        }
    }
    if pos != len {
        return Err(DurabilityError::Corrupt {
            context: format!("checkpoint frames end at {pos}, its length is {len}"),
        });
    }

    Ok(Some(Checkpoint {
        wave: meta.wave,
        clock: meta.clock,
        store: decode_store_state(frames[1])?,
        engine: frames[2].to_vec(),
    }))
}

/// The meta frame's fields.
struct Meta {
    wave: u64,
    clock: u64,
    /// The checkpoint's byte length, meta frame included.
    len: u64,
}

/// Decodes the meta frame's payload.
fn decode_meta(payload: &[u8]) -> Result<Meta, DurabilityError> {
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
    Ok(Meta {
        wave: meta.u64()?,
        clock: meta.u64()?,
        len: meta.u64()?,
    })
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
        Ok(FrameRead::Frame { payload, .. }) => decode_meta(payload).ok().map(|meta| meta.wave),
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
        // A checkpoint that fails is not durable. A directory squats on
        // the spare's path (the first checkpoint left no spare).
        let squatter = dir.join(SPARE_FILE);
        assert!(!squatter.exists());
        std::fs::create_dir(&squatter).unwrap();
        assert!(checkpointer.checkpoint(4, &store, Vec::new()).is_err());
        assert_eq!(checkpointer.checkpoint_lag_waves(5), 3);
        std::fs::remove_dir(&squatter).unwrap();
        // A reopened checkpointer finds the checkpoint on disk; the
        // directory holds it and its spare, nothing else.
        let checkpointer = Checkpointer::open(options).unwrap();
        assert_eq!(checkpointer.checkpoint_lag_waves(5), 3);
        checkpointer.checkpoint(5, &store, Vec::new()).unwrap();
        assert_eq!(checkpointer.checkpoint_lag_waves(5), 0);
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, [CHECKPOINT_FILE, SPARE_FILE]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn checkpoints_reuse_two_files_and_never_shrink_them() {
        use std::os::unix::fs::MetadataExt;
        let dir = tmp_dir("inodes");
        let live = dir.join(CHECKPOINT_FILE);
        let spare = dir.join(SPARE_FILE);
        // Each of the two files' lengths, by inode: neither ever shrinks.
        let mut lengths = std::collections::BTreeMap::new();
        for wave in 1..=40u64 {
            // Engine blobs that grow and shrink by up to 10 KB.
            let mut ckpt = sample_checkpoint();
            ckpt.wave = wave;
            ckpt.engine = vec![wave as u8; 20_000 + (wave as usize * 7_919) % 10_001];
            write_checkpoint(&dir, &ckpt).unwrap();
            assert_eq!(read_checkpoint(&dir).unwrap().unwrap(), ckpt);
            if wave == 1 {
                continue;
            }
            for path in [&live, &spare] {
                let meta = std::fs::metadata(path).unwrap();
                let len = lengths.entry(meta.ino()).or_insert(0);
                assert!(meta.len() >= *len, "wave {wave}: {} shrank", path.display());
                *len = meta.len();
            }
            assert_eq!(
                lengths.len(),
                2,
                "wave {wave}: a checkpoint took a new file"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_spare_with_a_second_name_is_replaced_not_overwritten() {
        let dir = tmp_dir("nlink");
        let ckpt = sample_checkpoint();
        write_checkpoint(&dir, &ckpt).unwrap();
        write_checkpoint(&dir, &ckpt).unwrap();
        let other = dir.join("other");
        std::fs::hard_link(dir.join(SPARE_FILE), &other).unwrap();
        let before = std::fs::read(&other).unwrap();
        let mut next = sample_checkpoint();
        next.wave = 43;
        write_checkpoint(&dir, &next).unwrap();
        assert_eq!(std::fs::read(&other).unwrap(), before);
        assert_eq!(read_checkpoint(&dir).unwrap().unwrap(), next);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_directory_sync_error_fails_unless_unsupported() {
        use std::io::ErrorKind;
        for kind in [ErrorKind::Unsupported, ErrorKind::InvalidInput] {
            assert!(tolerate_unsupported_sync(kind.into()).is_ok(), "{kind:?}");
        }
        for kind in [
            ErrorKind::Other,
            ErrorKind::PermissionDenied,
            ErrorKind::StorageFull,
        ] {
            assert!(tolerate_unsupported_sync(kind.into()).is_err(), "{kind:?}");
        }
    }
}
