//! Deterministic pseudo-random number generation for the MMSB workspace.
//!
//! The SG-MCMC sampler must produce *bitwise-identical* chains for a given
//! seed regardless of how the work is partitioned across ranks and threads.
//! That requirement rules out process-global or platform-dependent RNGs, so
//! this crate provides:
//!
//! * [`SplitMix64`] — a tiny seeding generator used to expand one `u64` seed
//!   into full generator state,
//! * [`Xoshiro256PlusPlus`] — the workhorse generator (fast, 256-bit state,
//!   with `jump`/`long_jump` for creating independent streams),
//! * [`Rng`] — convenience extension methods (floats, ranges, shuffling,
//!   sampling without replacement),
//! * distribution samplers in [`dist`]: Normal, Gamma, Beta and Dirichlet
//!   (Bernoulli trials are [`Rng::bernoulli`]) — everything the a-MMSB
//!   sampler needs.
//!
//! # Example
//!
//! ```
//! use mmsb_rand::{Rng, Xoshiro256PlusPlus, dist::{Gamma, Sample}};
//!
//! let mut rng = Xoshiro256PlusPlus::seed_from_u64(42);
//! let g = Gamma::new(2.5, 1.0).unwrap();
//! let x = g.sample(&mut rng);
//! assert!(x > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod dist;
mod splitmix;
mod xoshiro;

pub use splitmix::SplitMix64;
pub use xoshiro::Xoshiro256PlusPlus;

/// Source of raw 64-bit randomness.
///
/// Everything else in this crate (floats, ranges, distributions) is built on
/// top of `next_u64`.
pub trait RngCore {
    /// Produce the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// Extension methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits; multiply by 2^-53.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in the open interval `(0, 1)`.
    ///
    /// Useful for samplers that take `ln(u)`: never returns exactly zero.
    #[inline]
    fn next_f64_open(&mut self) -> f64 {
        loop {
            let x = self.next_f64();
            if x > 0.0 {
                return x;
            }
        }
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform `u32`.
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform integer in `[0, bound)` using Lemire's unbiased method.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() called with bound 0");
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    #[inline]
    fn below_usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    #[inline]
    fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range_u64: empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    #[inline]
    fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fair coin flip.
    #[inline]
    fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below_usize(i + 1);
            items.swap(i, j);
        }
    }

    /// Choose one element uniformly, or `None` for an empty slice.
    fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.below_usize(items.len())])
        }
    }

    /// Sample `k` *distinct* values from `[0, n)` via Floyd's algorithm.
    ///
    /// Output order is the insertion order of Floyd's algorithm (not sorted,
    /// not uniform over permutations, but uniform over *sets*). `O(k)`
    /// expected time, independent of `n`.
    ///
    /// # Panics
    /// Panics if `k > n`.
    fn sample_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "sample_distinct: k={k} > n={n}");
        // For dense requests a partial Fisher-Yates is cheaper and avoids
        // hash-set overhead.
        if k * 4 >= n {
            let mut all: Vec<usize> = (0..n).collect();
            for i in 0..k {
                let j = i + self.below_usize(n - i);
                all.swap(i, j);
            }
            all.truncate(k);
            return all;
        }
        let mut chosen = std::collections::HashSet::with_capacity(k * 2);
        let mut out = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = self.below_usize(j + 1);
            if chosen.insert(t) {
                out.push(t);
            } else {
                chosen.insert(j);
                out.push(j);
            }
        }
        out
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(0xDEADBEEF)
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = rng();
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
        }
    }

    #[test]
    fn f64_open_never_zero() {
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(r.next_f64_open() > 0.0);
        }
    }

    #[test]
    fn f32_in_unit_interval() {
        let mut r = rng();
        for _ in 0..10_000 {
            let x = r.next_f32();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = rng();
        for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
            for _ in 0..1000 {
                assert!(r.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = rng();
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[r.below(10) as usize] += 1;
        }
        for &c in &counts {
            let expected = n / 10;
            assert!(
                (c as i64 - expected as i64).unsigned_abs() < (expected / 10) as u64,
                "bucket count {c} too far from {expected}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "bound 0")]
    fn below_zero_panics() {
        rng().below(0);
    }

    #[test]
    fn range_within_bounds() {
        let mut r = rng();
        for _ in 0..1000 {
            let x = r.range_u64(10, 20);
            assert!((10..20).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = rng();
        let mut v: Vec<usize> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // With overwhelming probability the shuffle moved something.
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn choose_empty_is_none() {
        let mut r = rng();
        assert!(r.choose::<u8>(&[]).is_none());
    }

    #[test]
    fn sample_distinct_properties() {
        let mut r = rng();
        for (n, k) in [(100, 10), (100, 100), (1000, 3), (5, 5), (1, 1), (10, 0)] {
            let s = r.sample_distinct(n, k);
            assert_eq!(s.len(), k);
            let set: std::collections::HashSet<_> = s.iter().copied().collect();
            assert_eq!(set.len(), k, "duplicates in sample");
            assert!(s.iter().all(|&x| x < n));
        }
    }

    #[test]
    #[should_panic(expected = "sample_distinct")]
    fn sample_distinct_k_too_large_panics() {
        rng().sample_distinct(3, 4);
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = rng();
        for _ in 0..100 {
            assert!(!r.bernoulli(0.0));
            assert!(r.bernoulli(1.0));
        }
    }

    #[test]
    fn coin_is_balanced() {
        let mut r = rng();
        let heads = (0..100_000).filter(|_| r.coin()).count();
        assert!((45_000..55_000).contains(&heads), "heads={heads}");
    }
}
