//! CRC-32 (reflected IEEE 802.3) — the one checksum behind every `.ooc`
//! block, the `.ooc` header and the checkpoint.
//!
//! `mmsb_ooc` re-exports [`crc32`] and `mmsb_core::checkpoint` re-exports
//! it from there, so a bit flip anywhere in either on-disk format family is
//! caught by one verified implementation. Every out-of-core block load is
//! checksummed, so this function bounds the cost of a cache miss.
//!
//! Two implementations compute the same integer:
//!
//! * **slice-by-8**, portable and safe: eight `const` tables fold eight
//!   bytes per iteration, a bytewise loop takes the tail;
//! * **the carry-less-multiply fold** (x86_64, `pclmulqdq` + `sse4.1`
//!   detected at runtime, inputs of at least [`FOLD_MIN`] bytes): the
//!   construction of Intel's "Fast CRC Computation for Generic Polynomials
//!   Using PCLMULQDQ" as zlib, Linux and crc32fast run it — four 128-bit
//!   lanes folded 512 bits at a time, folded into one lane, reduced
//!   128 → 64 bits, then a Barrett reduction to the 32-bit state; the
//!   `< 16`-byte tail goes through slice-by-8.
//!
//! The result is an exact integer, so there is no backend parameter and no
//! determinism contract to pin: whichever path runs, every byte of both
//! formats stays what it was. The byte-at-a-time loop slice-by-8 replaced
//! is the test oracle for both.

/// The reflected IEEE 802.3 generator polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables. `TABLES[0]` is the classic byte table;
/// `TABLES[k][i]` is the CRC state of byte `i` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = tables();

// xlint: allow(hot-path-panic) — only ever const-evaluated (TABLES): an out-of-range index here is a build error, never a runtime panic
const fn tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
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
}

/// Shortest input the fold takes: its four 16-byte lanes.
const FOLD_MIN: usize = 64;

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if takes_fold(bytes.len()) {
        // SAFETY: `takes_fold` detected pclmulqdq and sse4.1 on the
        // running CPU during this call, which is `clmul::fold`'s
        // target-feature contract.
        return !unsafe { clmul::fold(!0, bytes) };
    }
    !slice_by_8(!0, bytes)
}

/// Whether [`crc32`] runs the fold on an input of `len` bytes. Detection
/// is re-checked on every call (std caches it in an atomic).
#[cfg(target_arch = "x86_64")]
fn takes_fold(len: usize) -> bool {
    len >= FOLD_MIN
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
}

/// `table[b]` — no `u8` is out of bounds of a 256-entry table, so the
/// `get` compiles to a plain load.
#[inline(always)]
fn at(table: &[u32; 256], b: u8) -> u32 {
    table.get(usize::from(b)).copied().unwrap_or(0)
}

/// Fold `bytes` into the raw (uninverted) CRC state `c`, slice-by-8.
fn slice_by_8(mut c: u32, bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
    let (words, tail) = bytes.as_chunks::<8>();
    for word in words {
        // The state folds into the low four bytes; byte `j` of the word
        // then has `7 - j` bytes after it in the chunk.
        let [b0, b1, b2, b3, b4, b5, b6, b7] =
            (u64::from_le_bytes(*word) ^ u64::from(c)).to_le_bytes();
        c = at(t7, b0)
            ^ at(t6, b1)
            ^ at(t5, b2)
            ^ at(t4, b3)
            ^ at(t3, b4)
            ^ at(t2, b5)
            ^ at(t1, b6)
            ^ at(t0, b7);
    }
    for &b in tail {
        c = at(t0, c as u8 ^ b) ^ (c >> 8);
    }
    c
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use core::arch::x86_64::*;

    // Fold constants for the reflected polynomial, from Linux's
    // `crc32-pclmul_asm.S` (`'` = bit reflection):
    /// `[(x^(4·128+32) mod P(x) << 32)]' << 1` — lane low half, 512 bits on.
    const K1: i64 = 0x1_5444_2BD4;
    /// `[(x^(4·128−32) mod P(x) << 32)]' << 1` — lane high half, 512 bits on.
    const K2: i64 = 0x1_C6E4_1596;
    /// `[(x^(128+32) mod P(x) << 32)]' << 1` — low half, 128 bits on.
    const K3: i64 = 0x1_7519_97D0;
    /// `[(x^(128−32) mod P(x) << 32)]' << 1` — high half, 128 bits on.
    const K4: i64 = 0x0_CCAA_009E;
    /// `[(x^64 mod P(x) << 32)]' << 1` — the 96 → 64-bit step.
    const K5: i64 = 0x1_63CD_6124;
    /// `P(x)'`, the polynomial with its `x^32` term.
    const P_X: i64 = 0x1_DB71_0641;
    /// `(x^64 div P(x))'`, the Barrett constant μ.
    const U_PRIME: i64 = 0x1_F701_1641;

    #[inline(always)]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: the reference proves 16 readable bytes and loadu has no
        // alignment requirement (SSE2 is the x86_64 baseline).
        unsafe { _mm_loadu_si128(block.as_ptr().cast::<__m128i>()) }
    }

    /// Carry `x` forward by the distance `k` encodes and add it to `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn fold_into(x: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Fold `bytes` into the raw CRC state, equal to
    /// `super::slice_by_8(state, bytes)` for every input. Inputs shorter
    /// than [`super::FOLD_MIN`] go to slice-by-8 whole.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    pub(super) fn fold(state: u32, bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let (quads, singles) = blocks.as_chunks::<4>();
        let Some(([a, b, c, d], rest)) = quads.split_first() else {
            return super::slice_by_8(state, bytes);
        };

        // Four lanes, the state folded into the first 32 bits.
        let mut x0 = _mm_xor_si128(load(a), _mm_cvtsi32_si128(state as i32));
        let mut x1 = load(b);
        let mut x2 = load(c);
        let mut x3 = load(d);
        let k1k2 = _mm_set_epi64x(K2, K1);
        for [a, b, c, d] in rest {
            x0 = fold_into(x0, load(a), k1k2);
            x1 = fold_into(x1, load(b), k1k2);
            x2 = fold_into(x2, load(c), k1k2);
            x3 = fold_into(x3, load(d), k1k2);
        }

        // Four lanes into one, then the remaining whole 16-byte blocks.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(x0, x1, k3k4);
        x = fold_into(x, x2, k3k4);
        x = fold_into(x, x3, k3k4);
        for s in singles {
            x = fold_into(x, load(s), k3k4);
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
            _mm_srli_si128::<8>(x),
        );
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );

        // Barrett reduction, bit-reflected: the state is the upper half of
        // the low 64 bits of `x ^ T2`.
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        let folded = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;

        super::slice_by_8(folded, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One step of the byte-at-a-time loop `crc32` ran before
    /// slice-by-8 — the reference both paths must equal everywhere.
    fn bytewise_step(c: u32, b: u8) -> u32 {
        TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
    }

    fn bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0, |c, &b| bytewise_step(c, b))
    }

    /// A fixed noisy buffer of `len` bytes.
    fn noise(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B1) >> 21) as u8)
            .collect()
    }

    #[test]
    fn crc32_known_vectors() {
        // The standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    /// Every length 0..=4099 at every start offset 0..16 of a fixed noisy
    /// buffer: main-loop count and tail length in every combination for
    /// slice-by-8, every lane count, single-block count and tail length
    /// for the fold, and every misalignment of its unaligned loads.
    fn assert_equals_bytewise_on_every_length_and_alignment(f: impl Fn(&[u8]) -> u32) {
        let buf = noise(4099 + 16);
        for off in 0..16 {
            // The reference runs once per offset; its state after `len`
            // bytes is the reference checksum of that prefix.
            let mut reference = !0u32;
            for len in 0..=4099 {
                assert_eq!(f(&buf[off..off + len]), !reference, "off={off} len={len}");
                reference = bytewise_step(reference, buf[off + len]);
            }
        }
    }

    #[test]
    fn slice_by_8_equals_bytewise_on_every_length_and_alignment() {
        assert_equals_bytewise_on_every_length_and_alignment(|s| !slice_by_8(!0, s));
    }

    /// `crc32` itself, which takes the fold from 64 bytes up on a
    /// PCLMULQDQ host (`dispatcher_takes_the_fold_exactly_when_detected`).
    #[test]
    fn crc32_equals_bytewise_on_every_length_and_alignment() {
        assert_equals_bytewise_on_every_length_and_alignment(crc32);
    }

    #[test]
    fn both_paths_equal_bytewise_on_block_sized_and_large_inputs() {
        let buf = noise((1 << 20) + 1);
        for len in [16383, 16384, 16385, 65536, 1 << 20] {
            for off in [0, 1] {
                let s = &buf[off..off + len];
                let reference = bytewise(s);
                assert_eq!(crc32(s), reference, "crc32 len={len} off={off}");
                assert_eq!(
                    !slice_by_8(!0, s),
                    reference,
                    "slice-by-8 len={len} off={off}"
                );
            }
        }
    }

    #[test]
    fn every_single_bit_flip_of_a_block_changes_the_crc() {
        let mut block = noise(16 << 10);
        let clean = crc32(&block);
        for byte in 0..block.len() {
            for bit in 0..8 {
                block[byte] ^= 1 << bit;
                assert_ne!(
                    crc32(&block),
                    clean,
                    "flip at byte {byte} bit {bit} went unseen"
                );
                block[byte] ^= 1 << bit;
            }
        }
    }

    /// A detection typo would silently fall back to slice-by-8 and pass
    /// every equality test above; this pins which path runs.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn dispatcher_takes_the_fold_exactly_when_detected() {
        let host = is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
        assert_eq!(takes_fold(FOLD_MIN), host);
        assert_eq!(takes_fold(16 << 10), host);
        assert!(!takes_fold(FOLD_MIN - 1));
    }
}
