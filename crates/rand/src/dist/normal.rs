//! Normal (Gaussian) distribution via the Marsaglia polar method.

use super::{check_positive, DistError, Sample};
use crate::{Rng, RngCore};

/// Normal distribution `N(mean, std_dev^2)`.
///
/// Uses the Marsaglia polar method: rejection-free of trig calls and
/// deterministic given the RNG stream. Each `sample` call consumes a
/// variable number of RNG draws (expected ~2.55 `u64`s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Construct with the given mean and standard deviation.
    ///
    /// `std_dev` must be strictly positive (use [`Normal::standard`] plus
    /// scaling if you need a degenerate distribution).
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, DistError> {
        if mean.is_nan() {
            return Err(DistError::NaN { param: "mean" });
        }
        check_positive("std_dev", std_dev)?;
        Ok(Self { mean, std_dev })
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Self {
            mean: 0.0,
            std_dev: 1.0,
        }
    }

    /// Mean parameter.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard deviation parameter.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Draw one standard-normal variate.
    #[inline]
    pub fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        let (u, s) = Self::standard_accept(rng);
        let factor = (-2.0 * s.ln() / s).sqrt();
        // The polar method yields two independent variates; we keep
        // one to stay stateless (the second would need caching that
        // complicates Clone/Send semantics for negligible gain here).
        u * factor
    }

    /// The rejection half of the polar method: draw until a point lands
    /// inside the unit disk and return its `(u, s = u² + v²)` pair.
    ///
    /// `u * (-2 ln s / s).sqrt()` completes the variate — exactly what
    /// [`standard_sample`](Normal::standard_sample) computes. Splitting
    /// the two halves lets batch callers consume the RNG stream here
    /// (identically to `standard_sample`, draw for draw) and finish the
    /// transcendental part vectorized over the whole batch.
    #[inline]
    pub fn standard_accept<R: RngCore + ?Sized>(rng: &mut R) -> (f64, f64) {
        loop {
            let u = 2.0 * rng.next_f64() - 1.0;
            let v = 2.0 * rng.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return (u, s);
            }
        }
    }

    /// [`standard_accept`](Normal::standard_accept) `u.len()` times,
    /// writing the `i`-th accepted pair to `(u[i], s[i])` — draw for draw
    /// the same stream consumption and the same values.
    ///
    /// The loop is write-then-advance: every candidate is stored in the
    /// next free slot and the slot index moves on by the acceptance test
    /// (0 or 1), so a rejection costs an overwrite, not a mispredicted
    /// branch.
    ///
    /// # Panics
    /// Panics if `u` and `s` differ in length.
    #[inline]
    pub fn standard_accept_batch<R: RngCore + ?Sized>(rng: &mut R, u: &mut [f64], s: &mut [f64]) {
        assert_eq!(u.len(), s.len(), "polar batch planes differ in length");
        let mut i = 0;
        while i < u.len() {
            let x = 2.0 * rng.next_f64() - 1.0;
            let y = 2.0 * rng.next_f64() - 1.0;
            let r = x * x + y * y;
            u[i] = x;
            s[i] = r;
            i += usize::from((r > 0.0) & (r < 1.0));
        }
    }
}

impl Sample for Normal {
    #[inline]
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * Self::standard_sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::{moments, rng};
    use super::*;

    #[test]
    fn rejects_bad_params() {
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, f64::NAN).is_err());
    }

    #[test]
    fn standard_moments() {
        let mut r = rng();
        let d = Normal::standard();
        let xs = d.sample_n(&mut r, 100_000);
        let (mean, var) = moments(&xs);
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.03, "var={var}");
    }

    #[test]
    fn shifted_scaled_moments() {
        let mut r = rng();
        let d = Normal::new(3.0, 2.0).unwrap();
        let xs = d.sample_n(&mut r, 100_000);
        let (mean, var) = moments(&xs);
        assert!((mean - 3.0).abs() < 0.05, "mean={mean}");
        assert!((var - 4.0).abs() < 0.15, "var={var}");
    }

    #[test]
    fn accept_plus_finish_matches_standard_sample() {
        // Two clones of one RNG: the split API must consume the stream
        // draw-for-draw like `standard_sample` and reproduce it exactly.
        let mut r1 = rng();
        let mut r2 = r1.clone();
        for _ in 0..1000 {
            let direct = Normal::standard_sample(&mut r1);
            let (u, s) = Normal::standard_accept(&mut r2);
            let finished = u * (-2.0 * s.ln() / s).sqrt();
            assert_eq!(direct.to_bits(), finished.to_bits());
        }
    }

    #[test]
    fn batch_accept_matches_repeated_accept() {
        for seed in 0..200u64 {
            for k in [0usize, 1, 3, 16, 63, 64, 65] {
                let mut one = crate::Xoshiro256PlusPlus::seed_from_u64(seed);
                let mut batch = one.clone();
                let (mut u, mut s) = (vec![0.0; k], vec![0.0; k]);
                Normal::standard_accept_batch(&mut batch, &mut u, &mut s);
                for i in 0..k {
                    let (want_u, want_s) = Normal::standard_accept(&mut one);
                    assert_eq!(u[i].to_bits(), want_u.to_bits(), "seed {seed} k {k} u[{i}]");
                    assert_eq!(s[i].to_bits(), want_s.to_bits(), "seed {seed} k {k} s[{i}]");
                }
                assert_eq!(batch, one, "seed {seed} k {k}: stream left elsewhere");
            }
        }
    }

    #[test]
    fn roughly_symmetric() {
        let mut r = rng();
        let pos = (0..100_000)
            .filter(|_| Normal::standard_sample(&mut r) > 0.0)
            .count();
        assert!((48_000..52_000).contains(&pos), "pos={pos}");
    }

    #[test]
    fn tail_mass_is_small() {
        let mut r = rng();
        let beyond3 = (0..100_000)
            .filter(|_| Normal::standard_sample(&mut r).abs() > 3.0)
            .count();
        // P(|Z|>3) ≈ 0.0027 → expect ~270 of 100k.
        assert!(beyond3 < 600, "beyond3={beyond3}");
    }
}
