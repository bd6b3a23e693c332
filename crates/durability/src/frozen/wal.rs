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
use std::io::{Read, Write};
use std::path::Path;

use smartflux_datastore::Value;

use super::SyncPolicy;
use crate::codec::{
    begin_frame, end_frame, put_str, put_u32, put_u64, put_u8, put_value, read_frame, FrameRead,
    Reader,
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

/// A write-ahead log opened for appending. It is never compacted: it grows
/// by one frame per committed wave.
#[derive(Debug)]
pub(crate) struct Wal {
    file: File,
    policy: SyncPolicy,
    /// Length of the log file in bytes (where the next frame starts).
    len: u64,
    /// The frame being appended, reused across calls.
    buf: Vec<u8>,
}

impl Wal {
    /// Opens (creating if absent) the log at `path` for appending. A torn
    /// final record is cut off first, so new frames follow the last
    /// complete one instead of bytes recovery would read as a torn tail.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the file cannot be opened, read or
    /// truncated, or [`DurabilityError::Corrupt`] if a complete frame fails
    /// its CRC: nothing is appended behind a damaged frame.
    pub fn open(path: &Path, policy: SyncPolicy) -> Result<Self, DurabilityError> {
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        let mut log = Vec::new();
        file.read_to_end(&mut log)?;
        let mut complete = 0;
        while let FrameRead::Frame { next, .. } = read_frame(&log, complete)? {
            complete = next;
        }
        let len = complete as u64;
        if complete < log.len() {
            file.set_len(len)?;
        }
        Ok(Self {
            file,
            policy,
            len,
            buf: Vec::new(),
        })
    }

    /// Current log length in bytes.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Appends one committed batch, flushing per the sync policy.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the write or fsync fails.
    #[cfg(test)]
    pub fn append(&mut self, batch: &WalBatch) -> Result<(), DurabilityError> {
        self.buf.clear();
        let at = begin_frame(&mut self.buf);
        put_batch(&mut self.buf, batch);
        end_frame(&mut self.buf, at);
        self.write_frame_buf()
    }

    /// Appends a batch whose ops were pre-encoded with [`encode_op_put`] /
    /// [`encode_op_delete`] — the group-commit fast path: the record is
    /// framed in place in a buffer the log keeps, so a commit copies the
    /// op bytes once and allocates nothing.
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
    ) -> Result<(), DurabilityError> {
        self.buf.clear();
        let at = begin_frame(&mut self.buf);
        put_batch_header(&mut self.buf, wave, clock, op_count);
        self.buf.extend_from_slice(ops);
        end_frame(&mut self.buf, at);
        self.write_frame_buf()
    }

    /// Writes the one frame in `self.buf` to the end of the log.
    fn write_frame_buf(&mut self) -> Result<(), DurabilityError> {
        if let Err(e) = self.file.write_all(&self.buf) {
            // Cut a partial frame off, as `open` would: the next append
            // must not land behind bytes recovery reads as a torn tail.
            self.file.set_len(self.len)?;
            return Err(e.into());
        }
        self.len += self.buf.len() as u64;
        if self.policy == SyncPolicy::Always {
            self.file.sync_data()?;
        }
        Ok(())
    }
}

/// Result of scanning a WAL file.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WalReadResult {
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
pub(crate) fn read_wal(path: &Path) -> Result<WalReadResult, DurabilityError> {
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
    use std::path::PathBuf;

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

    #[test]
    fn append_and_read_roundtrip() {
        let path = tmp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, SyncPolicy::Always).unwrap();
        for wave in 1..=3 {
            wal.append(&sample_batch(wave)).unwrap();
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
        wal.append_encoded(7, 70, 2, &ops).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), frame_of(&batch));
        assert_eq!(frame_of(&batch).len() as u64, wal.len());
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
    }

    #[test]
    fn open_refuses_to_append_behind_a_damaged_frame() {
        let path = tmp_path("damaged");
        let mut log = frame_of(&sample_batch(1));
        log[10] ^= 0xFF;
        std::fs::write(&path, &log).unwrap();
        assert!(matches!(
            Wal::open(&path, SyncPolicy::Never),
            Err(DurabilityError::Corrupt { .. })
        ));
        assert_eq!(std::fs::read(&path).unwrap(), log);
        std::fs::remove_file(&path).unwrap();
    }
}
