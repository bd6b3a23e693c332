//! The append-only, CRC-framed write-ahead log.
//!
//! One framed record per committed wave:
//!
//! ```text
//! record  := frame(batch)
//! batch   := tag:u8(=1) | wave:u64 | clock:u64 | op_count:u32 | op*
//! op(put) := 0:u8 | table | family | row | qualifier | ts:u64 | value
//! op(del) := 1:u8 | table | family | row | qualifier | ts:u64
//! ```
//!
//! Strings are length-prefixed UTF-8; all integers little-endian; the
//! frame carries the payload length and CRC-32 (see [`crate::codec`]).
//! The commit record's `clock` is the store's logical clock *after* the
//! wave, so replay restores the exact timestamp sequence even for waves
//! whose only writes were no-op deletes (which bump the clock without
//! producing an op).

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use smartflux_datastore::Value;

use super::SyncPolicy;
use crate::codec::{
    begin_frame, end_frame, put_str, put_u32, put_u64, put_u8, put_value, read_frame, FrameRead,
    Reader, FRAME_HEADER,
};
use crate::error::DurabilityError;

/// Record-type tag for a committed wave batch.
const BATCH_TAG: u8 = 1;

/// One logged store mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// A cell write.
    Put {
        /// Table name.
        table: String,
        /// Column family name.
        family: String,
        /// Row key.
        row: String,
        /// Column qualifier.
        qualifier: String,
        /// Written value.
        value: Value,
        /// Store timestamp assigned to the write.
        timestamp: u64,
    },
    /// A cell deletion that removed a value.
    Delete {
        /// Table name.
        table: String,
        /// Column family name.
        family: String,
        /// Row key.
        row: String,
        /// Column qualifier.
        qualifier: String,
        /// Store timestamp assigned to the delete.
        timestamp: u64,
    },
}

/// All mutations of one wave, committed atomically as a single record.
#[derive(Debug, Clone, PartialEq)]
pub struct WalBatch {
    /// Wave whose execution produced these operations.
    pub wave: u64,
    /// Store logical clock after the wave completed.
    pub clock: u64,
    /// Operations in execution order. May be empty — empty batches are
    /// still committed so the clock stays exact across no-op waves.
    pub ops: Vec<WalOp>,
}

/// Appends one encoded put op to `out` in the WAL op wire format.
///
/// Takes the fields by reference so the write-observer hot path can encode
/// straight out of a borrowed event — no per-op string allocation.
pub(crate) fn encode_op_put(
    out: &mut Vec<u8>,
    table: &str,
    family: &str,
    row: &str,
    qualifier: &str,
    timestamp: u64,
    value: &Value,
) {
    put_u8(out, 0);
    put_str(out, table);
    put_str(out, family);
    put_str(out, row);
    put_str(out, qualifier);
    put_u64(out, timestamp);
    put_value(out, value);
}

/// Appends one encoded delete op to `out` in the WAL op wire format.
pub(crate) fn encode_op_delete(
    out: &mut Vec<u8>,
    table: &str,
    family: &str,
    row: &str,
    qualifier: &str,
    timestamp: u64,
) {
    put_u8(out, 1);
    put_str(out, table);
    put_str(out, family);
    put_str(out, row);
    put_str(out, qualifier);
    put_u64(out, timestamp);
}

/// Bytes of a batch header (`tag | wave | clock | op_count`).
const BATCH_HEADER: usize = 21;

fn put_batch_header(out: &mut Vec<u8>, wave: u64, clock: u64, op_count: u32) {
    put_u8(out, BATCH_TAG);
    put_u64(out, wave);
    put_u64(out, clock);
    put_u32(out, op_count);
}

/// Appends `batch` in the record wire format (the frame's payload).
#[cfg(test)]
fn put_batch(out: &mut Vec<u8>, batch: &WalBatch) {
    put_batch_header(out, batch.wave, batch.clock, batch.ops.len() as u32);
    for op in &batch.ops {
        match op {
            WalOp::Put {
                table,
                family,
                row,
                qualifier,
                value,
                timestamp,
            } => encode_op_put(out, table, family, row, qualifier, *timestamp, value),
            WalOp::Delete {
                table,
                family,
                row,
                qualifier,
                timestamp,
            } => encode_op_delete(out, table, family, row, qualifier, *timestamp),
        }
    }
}

fn decode_batch(payload: &[u8]) -> Result<WalBatch, DurabilityError> {
    let mut r = Reader::new(payload);
    let tag = r.u8()?;
    if tag != BATCH_TAG {
        return Err(DurabilityError::Corrupt {
            context: format!("unknown WAL record tag {tag}"),
        });
    }
    let wave = r.u64()?;
    let clock = r.u64()?;
    let op_count = r.u32()? as usize;
    let mut ops = Vec::with_capacity(op_count.min(4096));
    for _ in 0..op_count {
        #[cfg(test)]
        tests::OPS_DECODED.with(|n| n.set(n.get() + 1));
        let kind = r.u8()?;
        let table = r.str()?;
        let family = r.str()?;
        let row = r.str()?;
        let qualifier = r.str()?;
        let timestamp = r.u64()?;
        ops.push(match kind {
            0 => WalOp::Put {
                table,
                family,
                row,
                qualifier,
                value: r.value()?,
                timestamp,
            },
            1 => WalOp::Delete {
                table,
                family,
                row,
                qualifier,
                timestamp,
            },
            k => {
                return Err(DurabilityError::Corrupt {
                    context: format!("unknown WAL op kind {k}"),
                })
            }
        });
    }
    if !r.is_exhausted() {
        return Err(DurabilityError::Corrupt {
            context: format!("{} trailing bytes after WAL batch", r.remaining()),
        });
    }
    Ok(WalBatch { wave, clock, ops })
}

/// Where one complete frame sits in the log file.
#[derive(Debug, Clone, Copy)]
struct FrameSpan {
    /// The batch's wave; [`UNKNOWN_WAVE`] for a frame [`scan_frames`]
    /// could not read as a batch.
    wave: u64,
    start: u64,
    end: u64,
}

/// Wave of a scanned frame that does not look like a batch. It sorts after
/// every checkpoint, so compaction always keeps — and therefore validates
/// and rejects — such a frame instead of silently dropping it.
const UNKNOWN_WAVE: u64 = u64::MAX;

/// A write-ahead log opened for appending.
///
/// Beside the file the log keeps an index — wave and byte range of every
/// complete frame, maintained by `append` and rebuilt at `open` by a
/// header-only scan — so [`compact`](Self::compact) drops a checkpointed
/// prefix by copying the bytes of the frames it keeps, decoding nothing.
#[derive(Debug)]
pub(crate) struct Wal {
    path: PathBuf,
    file: File,
    policy: SyncPolicy,
    appends_since_sync: u64,
    /// Length of the log file in bytes (where the next frame starts).
    len: u64,
    /// Every complete frame of the file, in file order.
    frames: Vec<FrameSpan>,
    /// Reused across calls: the frame being appended, or the frames a
    /// compaction keeps.
    buf: Vec<u8>,
}

fn open_log(path: &Path) -> std::io::Result<File> {
    // Appends always land at the end of the file whatever the read
    // position, so compaction can seek and read through the same handle.
    OpenOptions::new()
        .create(true)
        .read(true)
        .append(true)
        .open(path)
}

/// Indexes the complete frames of a `len`-byte log by reading, per frame,
/// the frame header and the batch's tag and wave — never the ops, and no
/// CRC: what compaction keeps it checks then, and what it drops need not
/// be intact. Stops at a torn tail exactly where [`read_wal_bytes`] does.
fn scan_frames(mut file: &File, len: u64) -> std::io::Result<Vec<FrameSpan>> {
    const WAVE_AT: usize = FRAME_HEADER + 1;
    let mut head = [0u8; WAVE_AT + 8];
    let mut frames = Vec::new();
    let mut pos = 0u64;
    while len - pos >= FRAME_HEADER as u64 {
        let have = head.len().min((len - pos) as usize);
        file.seek(SeekFrom::Start(pos))?;
        file.read_exact(&mut head[..have])?;
        let payload = u64::from(u32::from_le_bytes([head[0], head[1], head[2], head[3]]));
        if payload > len - pos - FRAME_HEADER as u64 {
            break;
        }
        let mut wave = [0u8; 8];
        wave.copy_from_slice(&head[WAVE_AT..]);
        let is_batch = payload >= BATCH_HEADER as u64 && head[FRAME_HEADER] == BATCH_TAG;
        let end = pos + FRAME_HEADER as u64 + payload;
        frames.push(FrameSpan {
            wave: if is_batch {
                u64::from_le_bytes(wave)
            } else {
                UNKNOWN_WAVE
            },
            start: pos,
            end,
        });
        pos = end;
    }
    Ok(frames)
}

/// Validates one frame a compaction is about to keep: complete, CRC-clean,
/// and a batch of the wave the index has for it. Reads the batch header
/// only — no op is decoded.
fn check_kept_frame(frame: &[u8], span: &FrameSpan) -> Result<(), DurabilityError> {
    let corrupt = |what: &str| DurabilityError::Corrupt {
        context: format!("WAL frame at offset {}: {what}", span.start),
    };
    let payload = match read_frame(frame, 0)? {
        FrameRead::Frame { payload, next } if next == frame.len() => payload,
        _ => return Err(corrupt("length does not match the log index")),
    };
    let mut r = Reader::new(payload);
    if r.u8()? != BATCH_TAG || payload.len() < BATCH_HEADER {
        return Err(corrupt("not a WAL batch"));
    }
    if r.u64()? != span.wave {
        return Err(corrupt("wave does not match the log index"));
    }
    Ok(())
}

impl Wal {
    /// Opens (creating if absent) the log at `path` for appending and
    /// indexes the frames already in it.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the file cannot be opened or scanned.
    pub fn open(path: impl Into<PathBuf>, policy: SyncPolicy) -> Result<Self, DurabilityError> {
        let path = path.into();
        let file = open_log(&path)?;
        let len = file.metadata()?.len();
        let frames = scan_frames(&file, len)?;
        Ok(Self {
            path,
            file,
            policy,
            appends_since_sync: 0,
            len,
            frames,
            buf: Vec::new(),
        })
    }

    /// Current log length in bytes.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Appends one committed batch, flushing per the sync policy; returns
    /// whether it ended with an fsync.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the write or fsync fails.
    #[cfg(test)]
    pub fn append(&mut self, batch: &WalBatch) -> Result<bool, DurabilityError> {
        self.buf.clear();
        let at = begin_frame(&mut self.buf);
        put_batch(&mut self.buf, batch);
        end_frame(&mut self.buf, at);
        self.write_frame_buf(batch.wave)
    }

    /// Appends a batch whose ops were pre-encoded with [`encode_op_put`] /
    /// [`encode_op_delete`] — the group-commit fast path: the record is
    /// framed in place in a buffer the log keeps, so a commit copies the
    /// op bytes once and allocates nothing. Returns whether the append
    /// ended with an fsync.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the write or fsync fails.
    pub fn append_encoded(
        &mut self,
        wave: u64,
        clock: u64,
        op_count: u32,
        ops: &[u8],
    ) -> Result<bool, DurabilityError> {
        self.buf.clear();
        let at = begin_frame(&mut self.buf);
        put_batch_header(&mut self.buf, wave, clock, op_count);
        self.buf.extend_from_slice(ops);
        end_frame(&mut self.buf, at);
        self.write_frame_buf(wave)
    }

    /// Writes the one frame in `self.buf` to the end of the log.
    fn write_frame_buf(&mut self, wave: u64) -> Result<bool, DurabilityError> {
        if let Err(e) = self.file.write_all(&self.buf) {
            // A partial write leaves bytes no index entry covers; later
            // frames must be indexed where they really land.
            if let Ok(meta) = self.file.metadata() {
                self.len = meta.len();
            }
            return Err(e.into());
        }
        let bytes = self.buf.len() as u64;
        self.frames.push(FrameSpan {
            wave,
            start: self.len,
            end: self.len + bytes,
        });
        self.len += bytes;
        self.appends_since_sync += 1;
        let should_sync = match self.policy {
            SyncPolicy::Always => true,
            SyncPolicy::Interval(n) => self.appends_since_sync >= n.max(1),
            SyncPolicy::Never => false,
        };
        if should_sync {
            self.file.sync_data()?;
            self.appends_since_sync = 0;
        }
        Ok(should_sync)
    }

    /// Rewrites the log keeping only batches with `wave > checkpoint_wave`.
    ///
    /// The surviving frames are copied byte for byte — by the ranges the
    /// index holds, CRC-checked, nothing decoded — to a temporary file
    /// which atomically replaces the log, so a crash mid-compaction leaves
    /// either the old or the new log, never a mix. The cost is O(bytes
    /// kept): usually nothing, the checkpoint having just superseded the
    /// whole log. Bytes no index entry covers (a torn final record) are
    /// dropped; a damaged frame in the superseded prefix is dropped like
    /// any other.
    ///
    /// # Errors
    ///
    /// Returns an I/O error on filesystem failure, or
    /// [`DurabilityError::Corrupt`] if a frame that would be kept fails
    /// validation; the log is then left as it was.
    pub fn compact(&mut self, checkpoint_wave: u64) -> Result<(), DurabilityError> {
        self.buf.clear();
        let mut kept = Vec::new();
        let mut log = &self.file;
        for span in self.frames.iter().filter(|s| s.wave > checkpoint_wave) {
            let at = self.buf.len();
            self.buf.resize(at + (span.end - span.start) as usize, 0);
            log.seek(SeekFrom::Start(span.start))?;
            log.read_exact(&mut self.buf[at..])?;
            check_kept_frame(&self.buf[at..], span)?;
            kept.push(FrameSpan {
                wave: span.wave,
                start: at as u64,
                end: self.buf.len() as u64,
            });
        }
        let tmp = self.path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&self.buf)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        self.file = open_log(&self.path)?;
        self.len = self.buf.len() as u64;
        self.frames = kept;
        self.appends_since_sync = 0;
        Ok(())
    }
}

/// Result of scanning a WAL file.
#[derive(Debug, Clone, PartialEq)]
pub struct WalReadResult {
    /// All complete, CRC-valid batches in append order.
    pub batches: Vec<WalBatch>,
    /// `true` if the file ended in a truncated record (which was dropped).
    pub torn_tail: bool,
}

/// Reads every complete batch from the log at `path`.
///
/// A missing file reads as an empty log. A truncated final record — the
/// signature of a crash mid-append — is reported via
/// `WalReadResult::torn_tail` and otherwise ignored.
///
/// # Errors
///
/// Returns an I/O error on read failure, or [`DurabilityError::Corrupt`]
/// if a fully-present record fails its CRC or decodes to nonsense.
#[deprecated(note = "kept only for benchmark/ until its re-baseline, ROADMAP item 3")]
pub fn read_wal(path: &Path) -> Result<WalReadResult, DurabilityError> {
    let mut buf = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut buf)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalReadResult {
                batches: Vec::new(),
                torn_tail: false,
            })
        }
        Err(e) => return Err(e.into()),
    }
    read_wal_bytes(&buf)
}

/// Reads every complete batch from an in-memory WAL image.
///
/// # Errors
///
/// Returns [`DurabilityError::Corrupt`] if a fully-present record fails
/// validation.
pub(crate) fn read_wal_bytes(buf: &[u8]) -> Result<WalReadResult, DurabilityError> {
    let mut batches = Vec::new();
    let mut pos = 0;
    loop {
        match read_frame(buf, pos)? {
            FrameRead::Frame { payload, next } => {
                batches.push(decode_batch(payload)?);
                pos = next;
            }
            FrameRead::End => {
                return Ok(WalReadResult {
                    batches,
                    torn_tail: false,
                })
            }
            FrameRead::Torn => {
                return Ok(WalReadResult {
                    batches,
                    torn_tail: true,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::write_frame;
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// Ops materialised by `decode_batch` on this thread.
        pub(super) static OPS_DECODED: Cell<u64> = const { Cell::new(0) };
    }

    fn tmp_path(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("smartflux-wal-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn sample_batch(wave: u64) -> WalBatch {
        WalBatch {
            wave,
            clock: wave * 10,
            ops: vec![
                WalOp::Put {
                    table: "t".into(),
                    family: "f".into(),
                    row: "r".into(),
                    qualifier: "q".into(),
                    value: Value::from(wave as f64),
                    timestamp: wave * 10,
                },
                WalOp::Delete {
                    table: "t".into(),
                    family: "f".into(),
                    row: "r".into(),
                    qualifier: "old".into(),
                    timestamp: wave * 10 + 1,
                },
            ],
        }
    }

    fn frame_of(batch: &WalBatch) -> Vec<u8> {
        let mut payload = Vec::new();
        put_batch(&mut payload, batch);
        let mut frame = Vec::new();
        write_frame(&mut frame, &payload);
        frame
    }

    /// The compaction `Wal::compact` replaced, kept as its oracle: decode
    /// the whole log, keep the batches past the checkpoint, re-encode.
    fn reference_compaction(log: &[u8], checkpoint_wave: u64) -> Result<Vec<u8>, DurabilityError> {
        let mut out = Vec::new();
        for batch in &read_wal_bytes(log)?.batches {
            if batch.wave > checkpoint_wave {
                out.extend_from_slice(&frame_of(batch));
            }
        }
        Ok(out)
    }

    /// Byte-range compaction of the log image `log`, through a `Wal`
    /// opened on it (so the index comes from the header scan). `damage`
    /// is applied to the file *after* the open: with it the index is that
    /// of a log which rotted under a live process.
    fn compacted(
        path: &Path,
        log: &[u8],
        damage: Option<(usize, u8)>,
        checkpoint_wave: u64,
    ) -> Result<Vec<u8>, DurabilityError> {
        std::fs::write(path, log).unwrap();
        let mut wal = Wal::open(path, SyncPolicy::Never).unwrap();
        if let Some((at, mask)) = damage {
            let mut damaged = log.to_vec();
            damaged[at] ^= mask;
            std::fs::write(path, &damaged).unwrap();
        }
        let decoded = OPS_DECODED.with(Cell::get);
        let outcome = wal.compact(checkpoint_wave);
        assert_eq!(OPS_DECODED.with(Cell::get), decoded, "compact decoded ops");
        outcome.map(|()| {
            let bytes = std::fs::read(path).unwrap();
            assert_eq!(wal.len(), bytes.len() as u64);
            bytes
        })
    }

    fn assert_same(
        new: Result<Vec<u8>, DurabilityError>,
        reference: Result<Vec<u8>, DurabilityError>,
        what: &str,
    ) {
        match (new, reference) {
            (Ok(new), Ok(reference)) => {
                assert_eq!(new, reference, "{what}");
                // What either leaves behind reads back whole.
                assert!(!read_wal_bytes(&new).unwrap().torn_tail, "{what}");
            }
            (Err(DurabilityError::Corrupt { .. }), Err(DurabilityError::Corrupt { .. })) => {}
            (new, reference) => panic!("{what}: new {new:?} vs reference {reference:?}"),
        }
    }

    fn op() -> impl Strategy<Value = WalOp> {
        let value = prop_oneof![
            (-1e6f64..1e6).prop_map(Value::from),
            (-50i64..50).prop_map(Value::I64),
            ".{0,6}".prop_map(Value::from),
        ];
        (0u8..3, 0u8..4, prop::option::of(value), 0u64..1000).prop_map(
            |(row, qualifier, put, timestamp)| {
                let (table, family) = ("t".to_owned(), format!("f{}", row % 2));
                let (row, qualifier) = (format!("r{row}"), format!("q{qualifier}"));
                match put {
                    Some(value) => WalOp::Put {
                        table,
                        family,
                        row,
                        qualifier,
                        value,
                        timestamp,
                    },
                    None => WalOp::Delete {
                        table,
                        family,
                        row,
                        qualifier,
                        timestamp,
                    },
                }
            },
        )
    }

    /// 0–30 batches with strictly increasing waves (gaps of 1–3).
    fn batches() -> impl Strategy<Value = Vec<WalBatch>> {
        prop::collection::vec((1u64..4, prop::collection::vec(op(), 0..5)), 0..=30).prop_map(
            |raw| {
                let mut wave = 0;
                raw.into_iter()
                    .map(|(gap, ops)| {
                        wave += gap;
                        WalBatch {
                            wave,
                            clock: wave * 7,
                            ops,
                        }
                    })
                    .collect()
            },
        )
    }

    proptest! {
        #[test]
        fn byte_range_compaction_matches_the_decoding_reference(batches in batches()) {
            let path = tmp_path("prop");
            let frames: Vec<Vec<u8>> = batches.iter().map(frame_of).collect();
            let log = frames.concat();
            let last_wave = batches.last().map_or(0, |b| b.wave);

            // Clean end, every cut wave.
            for cut in 0..=last_wave + 1 {
                assert_same(
                    compacted(&path, &log, None, cut),
                    reference_compaction(&log, cut),
                    &format!("clean log, cut {cut}"),
                );
            }
            let Some(last_frame) = frames.last() else {
                return;
            };
            let last_start = log.len() - last_frame.len();
            let mid_cut = batches[batches.len() / 2].wave;

            // Torn tail at every byte of the last frame, keeping all or
            // half of the log in turn.
            for end in last_start + 1..log.len() {
                let cut = if end % 2 == 0 { 0 } else { mid_cut };
                assert_same(
                    compacted(&path, &log[..end], None, cut),
                    reference_compaction(&log[..end], cut),
                    &format!("log torn at {end}, cut {cut}"),
                );
            }

            // One flipped byte: length, CRC, tag, wave, last payload byte.
            let mut start = 0;
            for (batch, frame) in batches.iter().zip(&frames) {
                for offset in [0, 4, 8, 9, frame.len() - 1] {
                    let at = start + offset;
                    let what = format!("wave {} flipped at +{offset}, cut {mid_cut}", batch.wave);
                    let rotted = compacted(&path, &log, Some((at, 0xFF)), mid_cut);
                    if batch.wave > mid_cut {
                        // In a kept frame: typed, and the log is left alone.
                        assert!(matches!(rotted, Err(DurabilityError::Corrupt { .. })), "{what}");
                        let mut damaged = log.clone();
                        damaged[at] ^= 0xFF;
                        assert_eq!(std::fs::read(&path).unwrap(), damaged, "{what}");
                        // Found damaged at open, it ends as the decoding
                        // compaction ended. (Not for the wave field: the
                        // scan trusts it, the CRC check comes after.)
                        if offset != 9 {
                            assert_same(
                                compacted(&path, &damaged, None, mid_cut),
                                reference_compaction(&damaged, mid_cut),
                                &format!("{what}, reopened"),
                            );
                        }
                    } else {
                        // In a frame the checkpoint supersedes: dropped
                        // with it, as if it had been intact.
                        assert_same(rotted, reference_compaction(&log, mid_cut), &what);
                    }
                }
                start += frame.len();
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn append_and_read_roundtrip() {
        let path = tmp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, SyncPolicy::Always).unwrap();
        for wave in 1..=3 {
            assert!(wal.append(&sample_batch(wave)).unwrap());
        }
        // Empty batches are legal and preserve the clock.
        wal.append(&WalBatch {
            wave: 4,
            clock: 41,
            ops: Vec::new(),
        })
        .unwrap();

        let read = read_wal(&path).unwrap();
        assert!(!read.torn_tail);
        assert_eq!(read.batches.len(), 4);
        assert_eq!(read.batches[2], sample_batch(3));
        assert_eq!(read.batches[3].clock, 41);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pre_encoded_append_writes_the_same_frame() {
        let path = tmp_path("encoded");
        let _ = std::fs::remove_file(&path);
        let batch = sample_batch(7);
        let mut ops = Vec::new();
        for op in &batch.ops {
            match op {
                WalOp::Put {
                    table,
                    family,
                    row,
                    qualifier,
                    value,
                    timestamp,
                } => encode_op_put(&mut ops, table, family, row, qualifier, *timestamp, value),
                WalOp::Delete {
                    table,
                    family,
                    row,
                    qualifier,
                    timestamp,
                } => encode_op_delete(&mut ops, table, family, row, qualifier, *timestamp),
            }
        }
        let mut wal = Wal::open(&path, SyncPolicy::Never).unwrap();
        assert!(!wal.append_encoded(7, 70, 2, &ops).unwrap());
        assert_eq!(std::fs::read(&path).unwrap(), frame_of(&batch));
        assert_eq!(frame_of(&batch).len() as u64, wal.len());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn interval_and_never_policies_defer_sync() {
        let path = tmp_path("sync-policy");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, SyncPolicy::Interval(2)).unwrap();
        assert!(!wal.append(&sample_batch(1)).unwrap());
        assert!(wal.append(&sample_batch(2)).unwrap());
        assert!(!wal.append(&sample_batch(3)).unwrap());
        drop(wal);
        let mut wal = Wal::open(&path, SyncPolicy::Never).unwrap();
        assert!(!wal.append(&sample_batch(4)).unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compact_drops_checkpointed_prefix() {
        let path = tmp_path("compact");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, SyncPolicy::Always).unwrap();
        for wave in 1..=5 {
            wal.append(&sample_batch(wave)).unwrap();
        }
        wal.compact(3).unwrap();
        let read = read_wal(&path).unwrap();
        assert_eq!(
            read.batches.iter().map(|b| b.wave).collect::<Vec<_>>(),
            vec![4, 5]
        );
        // The log stays appendable after compaction.
        wal.append(&sample_batch(6)).unwrap();
        assert_eq!(read_wal(&path).unwrap().batches.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn appends_after_a_torn_tail_survive_compaction() {
        // A crash tore wave 3's record. The reopened log is appended to
        // (behind the torn bytes, which no index entry covers), then
        // compacted: the torn bytes go, what was appended stays readable —
        // with and without a compaction in between.
        let path = tmp_path("torn-append");
        let mut log: Vec<u8> = (1..=3).flat_map(|w| frame_of(&sample_batch(w))).collect();
        log.truncate(log.len() - 5);
        for compact_first in [true, false] {
            std::fs::write(&path, &log).unwrap();
            let mut wal = Wal::open(&path, SyncPolicy::Never).unwrap();
            if compact_first {
                wal.compact(1).unwrap();
            }
            wal.append(&sample_batch(4)).unwrap();
            wal.compact(1).unwrap();
            wal.append(&sample_batch(5)).unwrap();
            let read = read_wal(&path).unwrap();
            assert!(!read.torn_tail);
            assert_eq!(
                read.batches,
                [2, 4, 5].map(sample_batch),
                "compact first: {compact_first}"
            );
            assert_eq!(wal.len(), std::fs::metadata(&path).unwrap().len());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_reads_as_empty() {
        let read = read_wal(Path::new("/nonexistent/smartflux/wal.log")).unwrap();
        assert!(read.batches.is_empty());
        assert!(!read.torn_tail);
    }

    #[test]
    fn garbage_in_complete_record_is_typed_corruption() {
        let mut buf = Vec::new();
        // A CRC-valid frame whose payload is not a valid batch.
        write_frame(&mut buf, &[0xAB, 0xCD]);
        assert!(matches!(
            read_wal_bytes(&buf),
            Err(DurabilityError::Corrupt { .. })
        ));
        // Compaction never drops such a frame silently: it is not known to
        // be superseded, so it is kept, checked and refused.
        let path = tmp_path("garbage");
        std::fs::write(&path, &buf).unwrap();
        let mut wal = Wal::open(&path, SyncPolicy::Never).unwrap();
        assert!(matches!(
            wal.compact(u64::MAX - 1),
            Err(DurabilityError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
