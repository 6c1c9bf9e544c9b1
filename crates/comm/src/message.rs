//! Wire encoding for sampler payloads.
//!
//! Messages are flat byte vectors with little-endian scalar encoding — the
//! same layout an RDMA NIC would DMA. A [`MessageWriter`] appends typed
//! sections; a [`MessageReader`] consumes them in order, validating
//! lengths so a malformed (truncated, reordered) message surfaces as a
//! [`CommError::Malformed`] instead of garbage floats.

use crate::CommError;

/// Append-only message encoder.
#[derive(Debug, Default, Clone)]
pub struct MessageWriter {
    buf: Vec<u8>,
}

impl MessageWriter {
    /// Start an empty message.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start with a capacity hint (bytes).
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Append one `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a slice length prefix.
    fn put_len(&mut self, len: usize) {
        self.buf.extend_from_slice(&(len as u64).to_le_bytes());
    }

    /// Append a length-prefixed `u32` slice.
    pub fn put_u32_slice(&mut self, vs: &[u32]) -> &mut Self {
        self.put_len(vs.len());
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        self
    }

    /// Append a length-prefixed `f64` slice.
    pub fn put_f64_slice(&mut self, vs: &[f64]) -> &mut Self {
        self.put_len(vs.len());
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        self
    }

    /// Finish, yielding the wire bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential message decoder.
#[derive(Debug)]
pub struct MessageReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> MessageReader<'a> {
    /// Wrap received bytes.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CommError> {
        if self.pos + n > self.buf.len() {
            return Err(CommError::Malformed {
                reason: format!(
                    "need {n} bytes at offset {}, message is {} bytes",
                    self.pos,
                    self.buf.len()
                ),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CommError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn get_len(&mut self) -> Result<usize, CommError> {
        let len = u64::from_le_bytes(self.take(8)?.try_into().unwrap());
        usize::try_from(len).map_err(|_| CommError::Malformed {
            reason: format!("slice length {len} exceeds usize"),
        })
    }

    /// Read a length-prefixed `u32` slice.
    pub fn get_u32_slice(&mut self) -> Result<Vec<u32>, CommError> {
        let len = self.get_len()?;
        let bytes = self.take(len * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Read a length-prefixed `f64` slice.
    pub fn get_f64_slice(&mut self) -> Result<Vec<f64>, CommError> {
        let len = self.get_len()?;
        let bytes = self.take(len * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Assert the whole message was consumed.
    pub fn finish(self) -> Result<(), CommError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CommError::Malformed {
                reason: format!("{} trailing bytes", self.buf.len() - self.pos),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = MessageWriter::new();
        w.put_u32(7)
            .put_u32_slice(&[1, 2, 3])
            .put_f64_slice(&[1e300, std::f64::consts::PI]);
        let bytes = w.finish();

        let mut r = MessageReader::new(&bytes);
        assert_eq!(r.get_u32().unwrap(), 7);
        assert_eq!(r.get_u32_slice().unwrap(), vec![1, 2, 3]);
        assert_eq!(
            r.get_f64_slice().unwrap(),
            vec![1e300, std::f64::consts::PI]
        );
        r.finish().unwrap();
    }

    #[test]
    fn empty_slices_roundtrip() {
        let mut w = MessageWriter::new();
        w.put_u32_slice(&[]);
        let bytes = w.finish();
        let mut r = MessageReader::new(&bytes);
        assert!(r.get_u32_slice().unwrap().is_empty());
        r.finish().unwrap();
    }

    #[test]
    fn truncated_message_errors() {
        let mut w = MessageWriter::new();
        w.put_f64_slice(&[1.0, 2.0]);
        let mut bytes = w.finish();
        bytes.truncate(bytes.len() - 3);
        let mut r = MessageReader::new(&bytes);
        assert!(matches!(
            r.get_f64_slice(),
            Err(CommError::Malformed { .. })
        ));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = MessageWriter::new();
        w.put_u32(1).put_u32(2);
        let bytes = w.finish();
        let mut r = MessageReader::new(&bytes);
        r.get_u32().unwrap();
        assert!(matches!(r.finish(), Err(CommError::Malformed { .. })));
    }

    #[test]
    fn reading_past_end_errors() {
        let mut r = MessageReader::new(&[1, 2]);
        assert!(r.get_u32().is_err());
    }

    #[test]
    fn capacity_and_len() {
        // The capacity is a hint only: the encoded size is what was put.
        let mut w = MessageWriter::with_capacity(64);
        w.put_u32(5);
        assert_eq!(w.finish().len(), 4);
    }
}
