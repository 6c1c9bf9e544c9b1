//! Dirichlet distribution over the probability simplex.

use super::{check_positive, DistError, Gamma, Sample};
use crate::RngCore;

/// Dirichlet distribution with concentration vector `alpha`.
///
/// Samples a point on the `K`-simplex by normalizing `K` independent Gamma
/// draws — the same expanded-mean re-parameterization SGRLD exploits
/// (`pi_k = theta_k / sum_j theta_j` with `theta_k ~ Gamma(alpha_k, 1)`).
#[derive(Debug, Clone, PartialEq)]
pub struct Dirichlet {
    gammas: Vec<Gamma>,
}

impl Dirichlet {
    /// Construct from a full concentration vector (all entries `> 0`).
    pub fn new(alpha: &[f64]) -> Result<Self, DistError> {
        if alpha.is_empty() {
            return Err(DistError::EmptyConcentration);
        }
        let gammas = alpha
            .iter()
            .map(|&a| {
                check_positive("alpha[i]", a)?;
                Gamma::new(a, 1.0)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { gammas })
    }

    /// Symmetric Dirichlet with `k` components all equal to `alpha` — the
    /// paper's `Dirichlet(alpha)` membership prior.
    pub fn symmetric(alpha: f64, k: usize) -> Result<Self, DistError> {
        if k == 0 {
            return Err(DistError::EmptyConcentration);
        }
        check_positive("alpha", alpha)?;
        let g = Gamma::new(alpha, 1.0)?;
        Ok(Self { gammas: vec![g; k] })
    }

    /// Dimensionality of the simplex.
    pub fn k(&self) -> usize {
        self.gammas.len()
    }

    /// Draw one point on the simplex.
    pub fn sample_simplex<R: RngCore + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        loop {
            let mut draws: Vec<f64> = self.gammas.iter().map(|g| g.sample(rng)).collect();
            let sum: f64 = draws.iter().sum();
            if sum > 0.0 && sum.is_finite() {
                for d in &mut draws {
                    *d /= sum;
                }
                return draws;
            }
        }
    }

    /// Draw one point into a preallocated buffer (hot-path variant).
    ///
    /// # Panics
    /// Panics if `out.len() != self.k()`.
    pub fn sample_into<R: RngCore + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        assert_eq!(out.len(), self.k(), "output buffer has wrong dimension");
        loop {
            let mut sum = 0.0;
            for (slot, g) in out.iter_mut().zip(&self.gammas) {
                let x = g.sample(rng);
                *slot = x;
                sum += x;
            }
            if sum > 0.0 && sum.is_finite() {
                for slot in out.iter_mut() {
                    *slot /= sum;
                }
                return;
            }
        }
    }
}

impl Sample for Dirichlet {
    /// Marginal sample: the first coordinate of a simplex draw
    /// (distributed `Beta(alpha_1, sum_{j>1} alpha_j)`).
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample_simplex(rng)[0]
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::rng;
    use super::*;

    #[test]
    fn rejects_bad_params() {
        assert!(Dirichlet::new(&[]).is_err());
        assert!(Dirichlet::new(&[1.0, 0.0]).is_err());
        assert!(Dirichlet::symmetric(1.0, 0).is_err());
        assert!(Dirichlet::symmetric(-1.0, 3).is_err());
    }

    #[test]
    fn samples_lie_on_simplex() {
        let mut r = rng();
        let d = Dirichlet::symmetric(0.5, 8).unwrap();
        for _ in 0..1000 {
            let p = d.sample_simplex(&mut r);
            assert_eq!(p.len(), 8);
            let sum: f64 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "sum={sum}");
            assert!(p.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn marginal_means_match_concentration() {
        let mut r = rng();
        let alpha = [1.0, 2.0, 7.0];
        let d = Dirichlet::new(&alpha).unwrap();
        let n = 100_000;
        let mut acc = [0.0f64; 3];
        for _ in 0..n {
            let p = d.sample_simplex(&mut r);
            for (a, x) in acc.iter_mut().zip(&p) {
                *a += x;
            }
        }
        let total: f64 = alpha.iter().sum();
        for (i, a) in acc.iter().enumerate() {
            let mean = a / n as f64;
            let expected = alpha[i] / total;
            assert!((mean - expected).abs() < 0.005, "i={i} mean={mean}");
        }
    }

    #[test]
    fn sample_into_matches_dimension() {
        let mut r = rng();
        let d = Dirichlet::symmetric(1.0, 4).unwrap();
        let mut buf = [0.0; 4];
        d.sample_into(&mut r, &mut buf);
        assert!((buf.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn sample_into_wrong_len_panics() {
        let mut r = rng();
        let d = Dirichlet::symmetric(1.0, 4).unwrap();
        let mut buf = [0.0; 3];
        d.sample_into(&mut r, &mut buf);
    }

    #[test]
    fn small_alpha_concentrates_on_corners() {
        // With alpha << 1 most mass sits in one coordinate.
        let mut r = rng();
        let d = Dirichlet::symmetric(0.05, 5).unwrap();
        let mut peaked = 0;
        for _ in 0..1000 {
            let p = d.sample_simplex(&mut r);
            if p.iter().cloned().fold(0.0, f64::max) > 0.9 {
                peaked += 1;
            }
        }
        assert!(peaked > 500, "peaked={peaked}");
    }
}
