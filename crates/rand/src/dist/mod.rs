//! Continuous and discrete distribution samplers.
//!
//! Each distribution validates its parameters at construction time and
//! returns a [`DistError`] for invalid ones, so the hot sampling path can be
//! panic-free and branch-light.

mod beta;
mod dirichlet;
mod gamma;
mod normal;

pub use beta::Beta;
pub use dirichlet::Dirichlet;
pub use gamma::Gamma;
pub use normal::Normal;

use crate::RngCore;

/// Parameter-validation error for distribution constructors.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// A shape/rate/scale parameter that must be strictly positive was not.
    NotPositive {
        /// Name of the offending parameter.
        param: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A parameter was NaN.
    NaN {
        /// Name of the offending parameter.
        param: &'static str,
    },
    /// A Dirichlet concentration vector was empty.
    EmptyConcentration,
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::NotPositive { param, value } => {
                write!(f, "parameter `{param}` must be > 0, got {value}")
            }
            DistError::NaN { param } => write!(f, "parameter `{param}` is NaN"),
            DistError::EmptyConcentration => write!(f, "Dirichlet needs at least one component"),
        }
    }
}

impl std::error::Error for DistError {}

pub(crate) fn check_positive(param: &'static str, value: f64) -> Result<f64, DistError> {
    if value.is_nan() {
        Err(DistError::NaN { param })
    } else if value <= 0.0 {
        Err(DistError::NotPositive { param, value })
    } else {
        Ok(value)
    }
}

/// A distribution over `f64` values.
pub trait Sample {
    /// Draw one sample.
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64;

    /// Draw `n` samples into a fresh vector.
    fn sample_n<R: RngCore + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use crate::Xoshiro256PlusPlus;

    pub fn rng() -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(0x5EED)
    }

    /// Sample mean and variance of `n` draws.
    pub fn moments(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_positive_accepts_positive() {
        assert_eq!(check_positive("x", 1.5), Ok(1.5));
    }

    #[test]
    fn check_positive_rejects_zero_negative_nan() {
        assert!(matches!(
            check_positive("x", 0.0),
            Err(DistError::NotPositive { .. })
        ));
        assert!(matches!(
            check_positive("x", -1.0),
            Err(DistError::NotPositive { .. })
        ));
        assert!(matches!(
            check_positive("x", f64::NAN),
            Err(DistError::NaN { .. })
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = check_positive("alpha", -2.0).unwrap_err();
        assert!(e.to_string().contains("alpha"));
        assert!(e.to_string().contains("-2"));
    }
}
