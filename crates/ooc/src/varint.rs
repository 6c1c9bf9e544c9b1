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
//! [`decode_list`] is the one decoder of list bytes, and it reads one
//! contiguous slice. The frame caches decode a list that spans 1 KiB
//! frames of a `.ooc` file from a copy of its bytes, which
//! [`MAX_ID_BYTES`] bounds.

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

/// Upper bound on the encoded size of one id or gap of a list: a `u32`
/// takes at most 5 LEB128 bytes, so a valid list of `d` ids takes at
/// most `d * MAX_ID_BYTES`.
pub const MAX_ID_BYTES: usize = 5;

/// Decode one varint from `bytes[pos..]`; returns `(value, next_pos)`, or
/// `None` for a truncated encoding or one that does not fit a `u64` (the
/// tenth byte may only carry bit 63).
#[inline]
pub fn read_varint(bytes: &[u8], mut pos: usize) -> Option<(u64, usize)> {
    let mut acc = 0u64;
    let mut shift = 0u32;
    while let Some(&byte) = bytes.get(pos) {
        if shift == 63 && byte > 1 {
            return None;
        }
        acc |= u64::from(byte & 0x7f) << shift;
        pos += 1;
        if byte & 0x80 == 0 {
            return Some((acc, pos));
        }
        shift += 7;
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

/// Decode the gap-coded list in `bytes` into `out`, exactly `out.len()`
/// ids. Returns `None` if `bytes` is malformed: truncated or one id
/// short, overlong, an id overflowing `u32`, or bytes left over.
#[inline]
pub fn decode_list(bytes: &[u8], out: &mut [u32]) -> Option<()> {
    let mut pos = 0usize;
    let mut prev = None;
    for slot in out.iter_mut() {
        let (raw, next) = read_varint(bytes, pos)?;
        pos = next;
        let v = match prev {
            None => raw,
            Some(p) => raw.checked_add(p)?.checked_add(1)?,
        };
        *slot = u32::try_from(v).ok()?;
        prev = Some(v);
    }
    (pos == bytes.len()).then_some(())
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
            if v <= u64::from(u32::MAX) {
                assert!(buf.len() <= MAX_ID_BYTES, "{v} takes {} bytes", buf.len());
            }
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
        let mut out = vec![0; list.len()];
        assert_eq!(decode_list(&buf, &mut out), Some(()));
        assert_eq!(out, list);

        // A trailing byte past the last id, and a list one id short.
        buf.push(0);
        assert_eq!(decode_list(&buf, &mut out), None);
        buf.truncate(list.len() - 1);
        assert_eq!(decode_list(&buf, &mut out), None);
    }

    #[test]
    fn empty_and_boundary_lists() {
        let mut buf = Vec::new();
        encode_list(&mut buf, &[]);
        assert!(buf.is_empty());
        assert_eq!(decode_list(&buf, &mut []), Some(()));

        let list = [0u32, u32::MAX];
        encode_list(&mut buf, &list);
        let mut out = [0; 2];
        assert_eq!(decode_list(&buf, &mut out), Some(()));
        assert_eq!(out, list);
    }

    #[test]
    fn decode_rejects_id_overflow() {
        // A gap pushing past u32::MAX must not wrap.
        let mut buf = Vec::new();
        write_varint(&mut buf, u32::MAX as u64);
        write_varint(&mut buf, 0); // next id would be u32::MAX + 1
        assert_eq!(decode_list(&buf, &mut [0; 2]), None);
    }
}
