//! xoshiro256++ 1.0 — the workspace's workhorse generator.
//!
//! Reference implementation by David Blackman and Sebastiano Vigna
//! (public domain, <https://prng.di.unimi.it/xoshiro256plusplus.c>).
//! 256 bits of state, period 2^256 − 1, passes BigCrush.

use crate::{RngCore, SplitMix64};

/// xoshiro256++ generator.
///
/// Supports `jump()` (advance by 2^128 steps) and `long_jump()` (2^192
/// steps) so that each rank / thread of the distributed sampler can own a
/// provably non-overlapping substream derived from one master seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Seed from a single `u64` by expanding it through [`SplitMix64`],
    /// as recommended by the xoshiro authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // The all-zero state is the one invalid state; SplitMix64 cannot
        // produce four consecutive zeros for any seed, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }

    /// Seed directly from raw state words.
    ///
    /// # Panics
    /// Panics if all four words are zero (the single invalid state).
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s != [0; 4], "xoshiro256++ state must not be all zero");
        Self { s }
    }

    /// The raw state words. `from_state(state())` reproduces the
    /// generator exactly — the checkpoint/restore path relies on this.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// A generator for stream `stream` of a master `seed`: seeds once, then
    /// applies `jump()` `stream` times. Streams are guaranteed disjoint for
    /// fewer than 2^128 draws each.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut rng = Self::seed_from_u64(seed);
        for _ in 0..stream {
            rng.jump();
        }
        rng
    }

    #[inline]
    fn advance(&mut self, table: [u64; 4]) {
        let mut s0 = 0u64;
        let mut s1 = 0u64;
        let mut s2 = 0u64;
        let mut s3 = 0u64;
        for jump in table {
            for b in 0..64 {
                if jump & (1u64 << b) != 0 {
                    s0 ^= self.s[0];
                    s1 ^= self.s[1];
                    s2 ^= self.s[2];
                    s3 ^= self.s[3];
                }
                self.next_u64();
            }
        }
        self.s = [s0, s1, s2, s3];
    }

    /// Advance the state by 2^128 steps (equivalent to that many
    /// `next_u64` calls).
    pub fn jump(&mut self) {
        self.advance([
            0x180E_C6D3_3CFD_0ABA,
            0xD5A6_1266_F0C9_392C,
            0xA958_6F18_4428_0FDE,
            0x3982_0797_44A7_F215,
        ]);
    }

    /// Advance the state by 2^192 steps.
    pub fn long_jump(&mut self) {
        self.advance([
            0x7674_3CAC_D2ED_1B4C,
            0x0B1A_F97F_7C7B_712E,
            0x8F71_3369_9B6F_05E3,
            0x4FBF_1A4A_0424_A2B6,
        ]);
    }
}

impl RngCore for Xoshiro256PlusPlus {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn matches_reference_vectors() {
        // First outputs for state {1,2,3,4} from the reference C code.
        let mut r = Xoshiro256PlusPlus::from_state([1, 2, 3, 4]);
        let expected = [41943041u64, 58720359, 3588806011781223, 3591011842654386];
        for e in expected {
            assert_eq!(r.next_u64(), e);
        }
    }

    #[test]
    fn deterministic() {
        let mut a = Xoshiro256PlusPlus::seed_from_u64(7);
        let mut b = Xoshiro256PlusPlus::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    #[should_panic(expected = "all zero")]
    fn zero_state_rejected() {
        Xoshiro256PlusPlus::from_state([0; 4]);
    }

    #[test]
    fn jump_produces_disjoint_prefixes() {
        let base = Xoshiro256PlusPlus::seed_from_u64(99);
        let mut a = base.clone();
        let mut b = base.clone();
        b.jump();
        let xs: Vec<u64> = (0..1000).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..1000).map(|_| b.next_u64()).collect();
        let overlap = xs.iter().filter(|x| ys.contains(x)).count();
        assert_eq!(overlap, 0, "jumped stream overlaps base stream");
    }

    #[test]
    fn streams_are_distinct_and_reproducible() {
        let mut s0 = Xoshiro256PlusPlus::stream(5, 0);
        let mut s1 = Xoshiro256PlusPlus::stream(5, 1);
        let mut s1b = Xoshiro256PlusPlus::stream(5, 1);
        assert_ne!(s0.next_u64(), s1.next_u64());
        assert_eq!(s1.next_u64(), {
            s1b.next_u64();
            s1b.next_u64()
        });
    }

    #[test]
    fn long_jump_differs_from_jump() {
        let base = Xoshiro256PlusPlus::seed_from_u64(3);
        let mut a = base.clone();
        let mut b = base.clone();
        a.jump();
        b.long_jump();
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn mean_of_uniform_is_half() {
        let mut r = Xoshiro256PlusPlus::seed_from_u64(11);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean={mean}");
    }

    #[test]
    fn state_roundtrip_resumes_the_stream() {
        let mut r = Xoshiro256PlusPlus::seed_from_u64(99);
        for _ in 0..17 {
            r.next_u64();
        }
        let mut resumed = Xoshiro256PlusPlus::from_state(r.state());
        for _ in 0..100 {
            assert_eq!(r.next_u64(), resumed.next_u64());
        }
    }
}
