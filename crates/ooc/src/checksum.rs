//! CRC-32 (reflected IEEE 802.3) — the checkpoint checksum, shared.
//!
//! This is the checksum the checkpoint v1 format introduced
//! (`mmsb_core::checkpoint` re-exports it from here); the graph file
//! format uses the same code for its header and per-block checksums so a
//! bit flip anywhere in either format family is caught by one verified
//! implementation.
//!
//! Every block load is checksummed, so this loop bounds the out-of-core
//! read path. It runs slice-by-8 — eight independent table lookups fold
//! eight bytes per iteration — in safe portable code; the byte-at-a-time
//! loop it replaced stays as the test oracle.

/// Slice-by-8 lookup tables for the reflected IEEE 802.3 polynomial.
/// `TABLES[0]` is the classic byte table; `TABLES[k][i]` is the CRC
/// state of byte `i` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        // The state folds into the low four bytes; byte `j` of the word
        // then has `7 - j` bytes after it in the chunk.
        let w = u64::from_le_bytes(ch.try_into().expect("chunks_exact(8)")) ^ u64::from(c);
        c = (0..8).fold(0, |acc, j| acc ^ TABLES[7 - j][(w >> (8 * j)) as usize & 0xFF]);
    }
    for &b in chunks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One step of the byte-at-a-time loop `crc32` ran before
    /// slice-by-8 — the reference the fast path must equal everywhere.
    fn bytewise_step(c: u32, b: u8) -> u32 {
        TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
    }

    #[test]
    fn crc32_known_vectors() {
        // The standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(!b"123456789".iter().fold(!0, |c, &b| bytewise_step(c, b)), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn slice_by_8_equals_bytewise_on_every_length_and_alignment() {
        // Every length 0..=4099 (main-loop count and tail length in every
        // combination) at every start offset 0..8 of a fixed noisy buffer.
        let noise = |i: u32| (i.wrapping_mul(0x9E37_79B1) >> 21) as u8;
        let buf: Vec<u8> = (0..4099 + 8).map(noise).collect();
        for off in 0..8 {
            // The reference runs once per offset; its state after `len`
            // bytes is the reference checksum of that prefix.
            let mut reference = !0u32;
            for len in 0..=4099 {
                assert_eq!(crc32(&buf[off..off + len]), !reference, "off={off} len={len}");
                reference = bytewise_step(reference, buf[off + len]);
            }
        }
    }
}
