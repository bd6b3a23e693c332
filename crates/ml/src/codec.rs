//! Little-endian binary primitives shared by the model codecs.
//!
//! The binary forms (`to_bytes`/`from_bytes`) are for checkpoints, where
//! exactness matters: `f64` values travel as raw IEEE-754 bit patterns,
//! so a restored model is bit-identical to the one serialised.

use crate::error::MlError;

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// A bounds-checked cursor whose failures are typed [`MlError::Decode`]
/// values, never panics — checkpoint restore feeds this attacker-grade
/// input (arbitrary bytes from disk).
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], MlError> {
        let remaining = self.remaining();
        if remaining < n {
            return Err(MlError::Decode(format!(
                "truncated model bytes: needed {n} bytes for {what}, had {remaining}"
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, MlError> {
        Ok(self.take(1, "u8")?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, MlError> {
        let b = self.take(2, "u16")?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, MlError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, MlError> {
        let b = self.take(8, "f64")?;
        Ok(f64::from_bits(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ])))
    }

    pub(crate) fn slice(&mut self, n: usize, what: &str) -> Result<&'a [u8], MlError> {
        self.take(n, what)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_truncation() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 3);
        put_u16(&mut buf, 700);
        put_u32(&mut buf, 1 << 20);
        put_f64(&mut buf, -0.25);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 3);
        assert_eq!(r.u16().unwrap(), 700);
        assert_eq!(r.u32().unwrap(), 1 << 20);
        assert_eq!(r.f64().unwrap(), -0.25);
        assert!(r.is_exhausted());
        assert!(matches!(r.u8(), Err(MlError::Decode(_))));
    }
}
