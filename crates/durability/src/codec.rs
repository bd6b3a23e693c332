//! Binary encoding primitives and CRC-checked framing.
//!
//! Every durable artifact in SmartFlux — WAL batches, checkpoint sections,
//! serialized engine state — is built from the same little-endian
//! primitives and wrapped in the same frame format:
//!
//! ```text
//! frame := len:u32 | crc:u32 | payload[len]      (crc = CRC-32 of payload)
//! ```
//!
//! The module is public so higher layers (the engine checkpoint codec in
//! `smartflux`) can reuse the primitives instead of inventing a second
//! wire format.

use smartflux_datastore::Value;

use crate::crc::crc32;
use crate::error::DurabilityError;

/// Bytes of a frame header (`len:u32 | crc:u32`).
pub const FRAME_HEADER: usize = 8;

/// Appends a length-and-CRC framed `payload` to `out`, returning the
/// number of bytes appended.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) -> usize {
    let at = begin_frame(out);
    out.extend_from_slice(payload);
    end_frame(out, at)
}

/// Starts a frame whose payload is encoded straight into `out`: reserves
/// the header and returns its offset for [`end_frame`]. Saves building
/// the payload in a buffer of its own only to copy it behind the header.
pub fn begin_frame(out: &mut Vec<u8>) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    at
}

/// Seals the frame begun at `at`: everything appended since is its
/// payload, whose length and CRC are patched into the reserved header.
/// Returns the frame's size in bytes, header included.
pub fn end_frame(out: &mut [u8], at: usize) -> usize {
    let (header, payload) = out[at..].split_at_mut(FRAME_HEADER);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    FRAME_HEADER + payload.len()
}

/// Outcome of reading one frame from a byte buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameRead<'a> {
    /// A complete, CRC-valid frame. `next` is the offset just past it.
    Frame {
        /// The frame payload.
        payload: &'a [u8],
        /// Offset of the byte following this frame.
        next: usize,
    },
    /// The buffer ends exactly at `pos` — a clean end of log.
    End,
    /// The bytes from `pos` onward are a truncated final frame (its
    /// declared extent reaches past the end of the buffer, or fewer than
    /// eight header bytes remain). Expected after a crash mid-append.
    Torn,
}

/// Reads the frame starting at `pos` in `buf`.
///
/// A frame that is fully present but fails its CRC is corruption, not a
/// torn tail, and yields an error: truncation can only shorten the file,
/// so a complete frame with a bad checksum means the bytes themselves
/// were damaged.
///
/// # Errors
///
/// Returns [`DurabilityError::Corrupt`] on a CRC mismatch of a fully
/// contained frame.
pub fn read_frame(buf: &[u8], pos: usize) -> Result<FrameRead<'_>, DurabilityError> {
    if pos >= buf.len() {
        return Ok(FrameRead::End);
    }
    let remaining = buf.len() - pos;
    if remaining < 8 {
        return Ok(FrameRead::Torn);
    }
    let len = u32::from_le_bytes([buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]]) as usize;
    let crc = u32::from_le_bytes([buf[pos + 4], buf[pos + 5], buf[pos + 6], buf[pos + 7]]);
    if len > remaining - 8 {
        return Ok(FrameRead::Torn);
    }
    let payload = &buf[pos + 8..pos + 8 + len];
    if crc32(payload) != crc {
        return Err(DurabilityError::Corrupt {
            context: format!("frame at offset {pos}: CRC mismatch"),
        });
    }
    Ok(FrameRead::Frame {
        payload,
        next: pos + 8 + len,
    })
}

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its exact IEEE-754 bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a length-prefixed byte blob.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Appends a tagged [`Value`] (0 = F64 bits, 1 = I64, 2 = Text, 3 = Bytes).
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::F64(x) => {
            put_u8(out, 0);
            put_f64(out, *x);
        }
        Value::I64(x) => {
            put_u8(out, 1);
            put_u64(out, *x as u64);
        }
        Value::Text(s) => {
            put_u8(out, 2);
            put_str(out, s);
        }
        Value::Bytes(b) => {
            put_u8(out, 3);
            put_bytes(out, b);
        }
    }
}

/// A checked cursor over an encoded payload.
///
/// Every read validates bounds and returns [`DurabilityError::Corrupt`]
/// rather than panicking, so malformed input can never take the process
/// down during recovery.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps `buf` for sequential decoding.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Returns `true` when the whole payload was consumed.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], DurabilityError> {
        if self.remaining() < n {
            return Err(DurabilityError::Corrupt {
                context: format!(
                    "truncated payload: needed {n} bytes for {what}, had {}",
                    self.remaining()
                ),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Corrupt`] if the payload is exhausted.
    pub fn u8(&mut self) -> Result<u8, DurabilityError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Corrupt`] on truncation.
    pub fn u16(&mut self) -> Result<u16, DurabilityError> {
        let b = self.take(2, "u16")?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Corrupt`] on truncation.
    pub fn u32(&mut self) -> Result<u32, DurabilityError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Corrupt`] on truncation.
    pub fn u64(&mut self) -> Result<u64, DurabilityError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` from its bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Corrupt`] on truncation.
    pub fn f64(&mut self) -> Result<f64, DurabilityError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Corrupt`] on truncation or invalid UTF-8.
    pub fn str(&mut self) -> Result<String, DurabilityError> {
        self.str_ref().map(str::to_owned)
    }

    /// Reads a length-prefixed UTF-8 string in place, borrowed from the
    /// payload.
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Corrupt`] on truncation or invalid UTF-8.
    pub fn str_ref(&mut self) -> Result<&'a str, DurabilityError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len, "string body")?;
        std::str::from_utf8(bytes).map_err(|_| DurabilityError::Corrupt {
            context: "string body is not valid UTF-8".to_owned(),
        })
    }

    /// Reads a length-prefixed byte blob.
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Corrupt`] on truncation.
    pub fn bytes(&mut self) -> Result<Vec<u8>, DurabilityError> {
        self.bytes_ref().map(<[u8]>::to_vec)
    }

    /// Reads a length-prefixed byte blob in place, borrowed from the
    /// payload.
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Corrupt`] on truncation.
    pub fn bytes_ref(&mut self) -> Result<&'a [u8], DurabilityError> {
        let len = self.u32()? as usize;
        self.take(len, "byte blob")
    }

    /// Reads a tagged [`Value`].
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Corrupt`] on truncation or an unknown tag.
    pub fn value(&mut self) -> Result<Value, DurabilityError> {
        match self.u8()? {
            0 => Ok(Value::F64(self.f64()?)),
            1 => Ok(Value::I64(self.u64()? as i64)),
            2 => Ok(Value::Text(self.str()?)),
            3 => Ok(Value::Bytes(self.bytes()?)),
            tag => Err(unknown_value_tag(tag)),
        }
    }

    /// Steps over a tagged [`Value`], checking it as [`value`](Self::value)
    /// would but building nothing, so it allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Corrupt`] on truncation, invalid UTF-8 in
    /// a text, or an unknown tag.
    pub fn skip_value(&mut self) -> Result<(), DurabilityError> {
        match self.u8()? {
            0 | 1 => self.u64().map(drop),
            2 => self.str_ref().map(drop),
            3 => self.bytes_ref().map(drop),
            tag => Err(unknown_value_tag(tag)),
        }
    }
}

fn unknown_value_tag(tag: u8) -> DurabilityError {
    DurabilityError::Corrupt {
        context: format!("unknown value tag {tag}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u16(&mut buf, 513);
        put_u32(&mut buf, 70_000);
        put_u64(&mut buf, u64::MAX - 1);
        put_f64(&mut buf, -0.1);
        put_str(&mut buf, "héllo");
        put_bytes(&mut buf, &[1, 2, 3]);
        for v in [
            Value::F64(f64::NAN),
            Value::I64(-5),
            Value::from("txt"),
            Value::from(vec![9u8]),
        ] {
            put_value(&mut buf, &v);
        }

        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 513);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap(), -0.1);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        // NaN survives bit-exactly even though NaN != NaN.
        assert!(matches!(r.value().unwrap(), Value::F64(x) if x.is_nan()));
        assert_eq!(r.value().unwrap(), Value::I64(-5));
        assert_eq!(r.value().unwrap(), Value::from("txt"));
        assert_eq!(r.value().unwrap(), Value::from(vec![9u8]));
        assert!(r.is_exhausted());
    }

    #[test]
    fn reader_rejects_truncation_and_bad_tags() {
        let mut r = Reader::new(&[1, 2]);
        assert!(matches!(r.u32(), Err(DurabilityError::Corrupt { .. })));
        let mut r = Reader::new(&[9]);
        assert!(matches!(r.value(), Err(DurabilityError::Corrupt { .. })));
        let mut buf = Vec::new();
        put_u32(&mut buf, 100); // declared string longer than buffer
        let mut r = Reader::new(&buf);
        assert!(matches!(r.str(), Err(DurabilityError::Corrupt { .. })));
    }

    #[test]
    fn skip_value_steps_over_exactly_what_value_reads() {
        let mut buf = Vec::new();
        for v in [
            Value::F64(-0.5),
            Value::I64(-5),
            Value::from("héllo"),
            Value::from(vec![9u8, 8]),
        ] {
            put_value(&mut buf, &v);
        }
        let (mut skipped, mut read) = (Reader::new(&buf), Reader::new(&buf));
        for _ in 0..4 {
            skipped.skip_value().unwrap();
            read.value().unwrap();
            assert_eq!(skipped.remaining(), read.remaining());
        }
        assert!(skipped.is_exhausted());
        // The checks `value` makes: a known tag, whole bodies, UTF-8 text.
        for bad in [&[9u8][..], &[0, 1, 2], &[2, 1, 0, 0, 0, 0xFF]] {
            let mut r = Reader::new(bad);
            assert!(matches!(
                r.skip_value(),
                Err(DurabilityError::Corrupt { .. })
            ));
            assert!(Reader::new(bad).value().is_err());
        }
    }

    #[test]
    fn frames_roundtrip_and_classify_damage() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first");
        let second_at = buf.len();
        write_frame(&mut buf, b"second");

        let Ok(FrameRead::Frame { payload, next }) = read_frame(&buf, 0) else {
            panic!("expected first frame");
        };
        assert_eq!(payload, b"first");
        assert_eq!(next, second_at);
        let Ok(FrameRead::Frame { payload, next }) = read_frame(&buf, next) else {
            panic!("expected second frame");
        };
        assert_eq!(payload, b"second");
        assert_eq!(read_frame(&buf, next).unwrap(), FrameRead::End);

        // Truncating exactly at the frame boundary is a clean end…
        assert_eq!(
            read_frame(&buf[..second_at], second_at).unwrap(),
            FrameRead::End
        );
        // …and truncation anywhere inside the frame → torn, never corrupt.
        for cut in second_at + 1..buf.len() {
            assert_eq!(
                read_frame(&buf[..cut], second_at).unwrap(),
                FrameRead::Torn,
                "cut at {cut}"
            );
        }

        // Damage inside a fully-present frame → typed corruption.
        let mut damaged = buf.clone();
        damaged[second_at + 8] ^= 0xFF;
        assert!(matches!(
            read_frame(&damaged, second_at),
            Err(DurabilityError::Corrupt { .. })
        ));
    }
}
