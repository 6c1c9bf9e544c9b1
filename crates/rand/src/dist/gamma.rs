//! Gamma distribution via the Marsaglia–Tsang squeeze method.

use super::{check_positive, DistError, Normal, Sample};
use crate::{Rng, RngCore};

/// Gamma distribution with shape `alpha` and scale `theta`
/// (mean `alpha * theta`, variance `alpha * theta^2`).
///
/// Sampling uses Marsaglia & Tsang (2000) for `alpha >= 1` and the
/// `alpha < 1` boost `Gamma(alpha) = Gamma(alpha+1) * U^{1/alpha}`.
/// This is the sampler the a-MMSB code uses to initialize `phi` and
/// `theta` (expanded-mean Dirichlet re-parameterization).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    alpha: f64,
    theta: f64,
    // Cached Marsaglia-Tsang constants for the (possibly boosted) shape.
    d: f64,
    c: f64,
    boost: bool,
}

impl Gamma {
    /// Construct with shape `alpha > 0` and scale `theta > 0`.
    pub fn new(alpha: f64, theta: f64) -> Result<Self, DistError> {
        check_positive("alpha", alpha)?;
        check_positive("theta", theta)?;
        let boost = alpha < 1.0;
        let shape = if boost { alpha + 1.0 } else { alpha };
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        Ok(Self {
            alpha,
            theta,
            d,
            c,
            boost,
        })
    }

    /// Shape parameter.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Scale parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    #[inline]
    fn sample_shape_ge1<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            let (x, v) = loop {
                let x = Normal::standard_sample(rng);
                let v = 1.0 + self.c * x;
                if v > 0.0 {
                    break (x, v * v * v);
                }
            };
            let u = rng.next_f64_open();
            // Squeeze check avoids the log most of the time.
            if u < 1.0 - 0.0331 * x * x * x * x {
                return self.d * v;
            }
            if u.ln() < 0.5 * x * x + self.d * (1.0 - v + v.ln()) {
                return self.d * v;
            }
        }
    }
}

impl Sample for Gamma {
    #[inline]
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        let g = self.sample_shape_ge1(rng);
        let g = if self.boost {
            let u = rng.next_f64_open();
            g * u.powf(1.0 / self.alpha)
        } else {
            g
        };
        g * self.theta
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::{moments, rng};
    use super::*;

    #[test]
    fn rejects_bad_params() {
        assert!(Gamma::new(0.0, 1.0).is_err());
        assert!(Gamma::new(1.0, 0.0).is_err());
        assert!(Gamma::new(-1.0, 1.0).is_err());
        assert!(Gamma::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn samples_are_positive() {
        let mut r = rng();
        for alpha in [0.1, 0.5, 1.0, 2.0, 100.0] {
            let g = Gamma::new(alpha, 1.0).unwrap();
            for _ in 0..2000 {
                let x = g.sample(&mut r);
                assert!(x > 0.0 && x.is_finite(), "alpha={alpha} x={x}");
            }
        }
    }

    #[test]
    fn tiny_shape_may_underflow_but_never_goes_negative() {
        // For alpha << 1 the boost factor u^(1/alpha) underflows f64 for
        // most u; the sampler then returns exactly 0.0, which callers
        // (e.g. phi initialization) must clamp. Verify it never produces
        // negative or non-finite values.
        let mut r = rng();
        let g = Gamma::new(0.01, 1.0).unwrap();
        for _ in 0..2000 {
            let x = g.sample(&mut r);
            assert!(x >= 0.0 && x.is_finite(), "x={x}");
        }
    }

    #[test]
    fn moments_shape_ge_1() {
        let mut r = rng();
        for (alpha, theta) in [(1.0, 1.0), (2.5, 1.0), (10.0, 0.5)] {
            let g = Gamma::new(alpha, theta).unwrap();
            let xs = g.sample_n(&mut r, 200_000);
            let (mean, var) = moments(&xs);
            let (em, ev) = (alpha * theta, alpha * theta * theta);
            assert!((mean - em).abs() / em < 0.02, "alpha={alpha} mean={mean}");
            assert!((var - ev).abs() / ev < 0.06, "alpha={alpha} var={var}");
        }
    }

    #[test]
    fn moments_shape_lt_1() {
        let mut r = rng();
        let g = Gamma::new(0.3, 2.0).unwrap();
        let xs = g.sample_n(&mut r, 300_000);
        let (mean, var) = moments(&xs);
        assert!((mean - 0.6).abs() < 0.02, "mean={mean}");
        assert!((var - 1.2).abs() < 0.08, "var={var}");
    }

    #[test]
    fn exponential_special_case() {
        // Gamma(1, theta) is Exponential(1/theta): median = theta * ln 2.
        let mut r = rng();
        let g = Gamma::new(1.0, 1.0).unwrap();
        let mut xs = g.sample_n(&mut r, 100_001);
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[50_000];
        assert!(
            (median - std::f64::consts::LN_2).abs() < 0.02,
            "median={median}"
        );
    }
}
