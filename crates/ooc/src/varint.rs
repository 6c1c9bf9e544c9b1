//! LEB128 varints and gap coding for sorted neighbor lists.
//!
//! A neighbor list is a strictly increasing sequence of `u32` vertex ids
//! (the CSR invariant). It is stored as the varint of the first id
//! followed by the varint of each successive *gap minus one* (gaps are at
//! least 1 in a strictly increasing list, so `gap - 1` saves a byte
//! exactly at the densest — most common — gap of 1). Community-local id
//! assignment makes most gaps small, which is where the ≤ 60%-of-raw
//! compression target comes from (DESIGN.md §15).
//!
//! Decoding must work on lists that straddle 64 KiB block boundaries, so
//! the decoder here is expressed as a resumable accumulator
//! ([`VarintState`]) fed one byte at a time; [`decode_list`] wraps it for
//! the contiguous case.

/// Upper bound on the encoded size of one `u64` varint.
pub const MAX_VARINT_BYTES: usize = 10;

/// Append the LEB128 encoding of `v` to `buf`.
#[inline]
pub fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Resumable LEB128 decoder: feed bytes, get a value when one completes.
///
/// The state survives across block boundaries, which is how lists that
/// straddle blocks are decoded without copying bytes into a staging
/// buffer.
#[derive(Debug, Default, Clone, Copy)]
pub struct VarintState {
    acc: u64,
    shift: u32,
}

/// The error [`VarintState::feed`] reports: an encoding that does not
/// fit a `u64` (overlong or overflowing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarintOverflow;

impl std::fmt::Display for VarintOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("varint does not fit in 64 bits")
    }
}

impl std::error::Error for VarintOverflow {}

impl VarintState {
    /// Feed one byte; returns the decoded value if this byte completes a
    /// varint, or an error on overflow (more than [`MAX_VARINT_BYTES`]
    /// bytes / bits past 64).
    #[inline]
    pub fn feed(&mut self, byte: u8) -> Result<Option<u64>, VarintOverflow> {
        if self.shift >= 64 || (self.shift == 63 && (byte & 0x7e) != 0) {
            return Err(VarintOverflow);
        }
        self.acc |= ((byte & 0x7f) as u64) << self.shift;
        if byte & 0x80 == 0 {
            let v = self.acc;
            self.acc = 0;
            self.shift = 0;
            Ok(Some(v))
        } else {
            self.shift += 7;
            Ok(None)
        }
    }

    /// Whether the decoder is mid-varint (a continuation byte was fed but
    /// the terminating byte has not arrived).
    #[inline]
    pub fn mid_varint(&self) -> bool {
        self.shift != 0 || self.acc != 0
    }
}

/// Decode one varint from `bytes[pos..]`; returns `(value, next_pos)`.
#[inline]
pub fn read_varint(bytes: &[u8], mut pos: usize) -> Option<(u64, usize)> {
    let mut st = VarintState::default();
    while pos < bytes.len() {
        match st.feed(bytes[pos]) {
            Ok(Some(v)) => return Some((v, pos + 1)),
            Ok(None) => pos += 1,
            Err(VarintOverflow) => return None,
        }
    }
    None
}

/// The value a list stores for id `v`: the id itself when it opens the
/// list (`prev` is `None`), else its gap minus one to the previous id.
///
/// # Panics
/// Debug-asserts strict monotonicity; release builds encode whatever they
/// are given (the decoder's degree check catches corruption).
#[inline]
pub fn gap_code(prev: Option<u32>, v: u32) -> u64 {
    match prev {
        None => v as u64,
        Some(p) => {
            debug_assert!(v > p, "neighbor list must be strictly increasing");
            v as u64 - p as u64 - 1
        }
    }
}

/// Append the gap-coded encoding of a strictly increasing list.
pub fn encode_list(buf: &mut Vec<u8>, list: &[u32]) {
    let mut prev = None;
    for &v in list {
        write_varint(buf, gap_code(prev, v));
        prev = Some(v);
    }
}

/// Decode a gap-coded list of `degree` ids from `bytes`, appending to
/// `out`. Returns the number of bytes consumed, or `None` if `bytes` is
/// malformed (truncated, overlong, or an id overflowing `u32`).
pub fn decode_list(bytes: &[u8], degree: u32, out: &mut Vec<u32>) -> Option<usize> {
    let mut pos = 0usize;
    let mut prev = 0u64;
    for i in 0..degree {
        let (raw, next) = read_varint(bytes, pos)?;
        pos = next;
        let v = if i == 0 {
            raw
        } else {
            prev.checked_add(raw)?.checked_add(1)?
        };
        if v > u32::MAX as u64 {
            return None;
        }
        out.push(v as u32);
        prev = v;
    }
    Some(pos)
}

/// Exact encoded byte length of a list without materializing the bytes.
pub fn encoded_len(list: &[u32]) -> u64 {
    let mut prev = None;
    list.iter()
        .map(|&v| varint_len(gap_code(prev.replace(v), v)))
        .sum()
}

/// Encoded byte length of one varint.
#[inline]
pub fn varint_len(v: u64) -> u64 {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as u64).div_ceil(7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_edges() {
        for v in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u32::MAX as u64 - 1,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(buf.len() as u64, varint_len(v), "len of {v}");
            assert!(buf.len() <= MAX_VARINT_BYTES);
            let (back, used) = read_varint(&buf, 0).unwrap();
            assert_eq!(back, v);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn truncated_varint_is_none() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 1u64 << 40);
        for cut in 0..buf.len() {
            assert_eq!(read_varint(&buf[..cut], 0), None, "cut={cut}");
        }
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // 11 continuation bytes cannot be a valid u64.
        let bytes = [0x80u8; 11];
        assert_eq!(read_varint(&bytes, 0), None);
        // 10 bytes whose top byte has bits past 64 is also invalid.
        let mut bytes = [0x80u8; 10];
        bytes[9] = 0x7f;
        assert_eq!(read_varint(&bytes, 0), None);
    }

    #[test]
    fn list_roundtrip_and_gap_one_density() {
        let list: Vec<u32> = (100..200).collect();
        let mut buf = Vec::new();
        encode_list(&mut buf, &list);
        // First id costs one byte (100 < 128); every gap of 1 encodes as
        // the single byte 0x00.
        assert_eq!(buf.len(), list.len());
        assert_eq!(buf.len() as u64, encoded_len(&list));
        let mut out = Vec::new();
        let used = decode_list(&buf, list.len() as u32, &mut out).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(out, list);
    }

    #[test]
    fn empty_and_boundary_lists() {
        let mut buf = Vec::new();
        encode_list(&mut buf, &[]);
        assert!(buf.is_empty());
        let mut out = Vec::new();
        assert_eq!(decode_list(&buf, 0, &mut out), Some(0));
        assert!(out.is_empty());

        let list = [0u32, u32::MAX];
        buf.clear();
        encode_list(&mut buf, &list);
        out.clear();
        decode_list(&buf, 2, &mut out).unwrap();
        assert_eq!(out, list);
    }

    #[test]
    fn decode_rejects_id_overflow() {
        // A gap pushing past u32::MAX must not wrap.
        let mut buf = Vec::new();
        write_varint(&mut buf, u32::MAX as u64);
        write_varint(&mut buf, 0); // next id would be u32::MAX + 1
        let mut out = Vec::new();
        assert_eq!(decode_list(&buf, 2, &mut out), None);
    }
}
