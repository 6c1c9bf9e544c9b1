//! Sampler hyperparameters and configuration.

use crate::CoreError;
use mmsb_graph::minibatch::Strategy;
use mmsb_simd::{Backend, SimdPolicy};

/// The SGRLD step-size schedule `eps_t = a * (1 + t/b)^(-c)`.
///
/// `c` in `(0.5, 1]` satisfies the Robbins–Monro conditions
/// (`sum eps = inf`, `sum eps^2 < inf`). Defaults follow Li, Ahn & Welling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepSize {
    /// Initial scale `a`.
    pub a: f64,
    /// Decay offset `b`.
    pub b: f64,
    /// Decay exponent `c`.
    pub c: f64,
}

impl Default for StepSize {
    fn default() -> Self {
        Self {
            a: 0.01,
            b: 1024.0,
            c: 0.55,
        }
    }
}

impl StepSize {
    /// The step size at iteration `t` (0-based).
    #[inline]
    pub fn at(&self, t: u64) -> f64 {
        self.a * (1.0 + t as f64 / self.b).powf(-self.c)
    }

    fn validate(&self) -> Result<(), CoreError> {
        if !(self.a > 0.0 && self.b > 0.0) {
            return Err(CoreError::InvalidConfig {
                reason: format!("step size a={}, b={} must be positive", self.a, self.b),
            });
        }
        if !(self.c > 0.5 && self.c <= 1.0) {
            return Err(CoreError::InvalidConfig {
                reason: format!("step decay c={} outside (0.5, 1]", self.c),
            });
        }
        Ok(())
    }
}

/// Full sampler configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplerConfig {
    /// Number of latent communities `K`.
    pub k: usize,
    /// Dirichlet concentration `alpha` for memberships (default `1/K`).
    pub alpha: f64,
    /// Beta prior `eta = (eta0, eta1)` for community strengths.
    pub eta: (f64, f64),
    /// Inter-community link probability `delta`.
    pub delta: f64,
    /// Step-size schedule.
    pub step: StepSize,
    /// Mini-batch strategy.
    pub minibatch: Strategy,
    /// Neighbor-set size `|V_n|` per mini-batch vertex.
    pub neighbor_sample: usize,
    /// Master RNG seed; all randomness derives from it.
    pub seed: u64,
    /// Kernel backend selection for the phi/theta hot path.
    ///
    /// `Auto` (the default) picks the widest SIMD backend the host
    /// supports; `Force(Backend::Scalar)` runs the same `mmsb-simd`
    /// kernels at one unfused lane — the portable choice every host can
    /// reproduce. Chains are bitwise-reproducible per backend (same
    /// backend and seed ⇒ identical bytes at any thread count), but
    /// different backends round differently in the last ulps — force one
    /// for cross-host reproducibility.
    pub simd: SimdPolicy,
    /// Out-of-core cache share (in blocks' worth of frames) per pool thread;
    /// ignored by resident backends. A sampler on `T` threads caches
    /// `(T + 1) x graph_cache_blocks` blocks in total, split evenly over
    /// the regions of the file (one cache each). Cache size is pure
    /// scratch — any value yields the same chain — so this only trades
    /// memory for disk reads.
    pub graph_cache_blocks: usize,
}

impl SamplerConfig {
    /// A configuration with `k` communities and the paper's defaults:
    /// `alpha = 1/K`, `eta = (1, 1)`, `delta = 1e-5`, stratified-node
    /// mini-batches with 32 non-link strata, `|V_n| = 32`.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            alpha: 1.0 / k.max(1) as f64,
            eta: (1.0, 1.0),
            delta: 1e-5,
            step: StepSize::default(),
            minibatch: Strategy::StratifiedNode {
                partitions: 32,
                anchors: 32,
            },
            neighbor_sample: 32,
            seed: 42,
            simd: SimdPolicy::Auto,
            graph_cache_blocks: mmsb_ooc::DEFAULT_CACHE_BLOCKS,
        }
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the mini-batch strategy.
    pub fn with_minibatch(mut self, strategy: Strategy) -> Self {
        self.minibatch = strategy;
        self
    }

    /// Set the neighbor-sample size `|V_n|`.
    pub fn with_neighbor_sample(mut self, n: usize) -> Self {
        self.neighbor_sample = n;
        self
    }

    /// Set the SIMD backend policy.
    pub fn with_simd(mut self, simd: SimdPolicy) -> Self {
        self.simd = simd;
        self
    }

    /// The concrete kernel backend this configuration resolves to.
    ///
    /// [`Self::validate`] guarantees resolution succeeds for any config
    /// a sampler accepts; on an unvalidated config with an impossible
    /// forced backend this falls back to scalar rather than panicking.
    pub fn backend(&self) -> Backend {
        self.simd.resolve().unwrap_or(Backend::Scalar)
    }

    /// Set the out-of-core block-cache share (blocks per pool thread,
    /// see [`SamplerConfig::graph_cache_blocks`]).
    pub fn with_graph_cache_blocks(mut self, blocks: usize) -> Self {
        self.graph_cache_blocks = blocks.max(1);
        self
    }

    /// Validate against a graph of `num_vertices` vertices.
    pub fn validate(&self, num_vertices: u32) -> Result<(), CoreError> {
        if self.k == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "k must be at least 1".into(),
            });
        }
        if self.alpha <= 0.0 || self.alpha.is_nan() {
            return Err(CoreError::InvalidConfig {
                reason: format!("alpha = {} must be positive", self.alpha),
            });
        }
        if !(self.eta.0 > 0.0 && self.eta.1 > 0.0) {
            return Err(CoreError::InvalidConfig {
                reason: format!("eta = {:?} must be positive", self.eta),
            });
        }
        if !(self.delta > 0.0 && self.delta < 1.0) {
            return Err(CoreError::InvalidConfig {
                reason: format!("delta = {} outside (0, 1)", self.delta),
            });
        }
        self.step.validate()?;
        self.simd.resolve().map_err(|e| CoreError::InvalidConfig {
            reason: e.to_string(),
        })?;
        if num_vertices < 2 {
            return Err(CoreError::GraphTooSmall {
                reason: format!("{num_vertices} vertices"),
            });
        }
        if self.neighbor_sample == 0 || self.neighbor_sample >= num_vertices as usize {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "neighbor sample {} must be in [1, N) with N = {num_vertices}",
                    self.neighbor_sample
                ),
            });
        }
        Ok(())
    }
}

/// Every backend this host can run, `Scalar` first — what the
/// backend-generic unit tests iterate over.
#[cfg(test)]
pub(crate) fn available_backends() -> Vec<Backend> {
    [Backend::Scalar, Backend::Avx2, Backend::Neon]
        .into_iter()
        .filter(|b| b.available())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_size_decays_and_starts_at_a() {
        let s = StepSize::default();
        assert!((s.at(0) - 0.01).abs() < 1e-15);
        assert!(s.at(100) < s.at(0));
        assert!(s.at(10_000) < s.at(100));
        assert!(s.at(1_000_000) > 0.0);
    }

    #[test]
    fn step_size_robbins_monro_shape() {
        // With c in (0.5, 1], the tail sum of eps^2 over a long horizon is
        // finite-ish while eps decays slower than 1/t.
        let s = StepSize::default();
        let t1 = s.at(1_000);
        let t2 = s.at(4_000);
        // c = 0.55: quadrupling t should shrink eps by < 4x (sub-linear).
        assert!(t1 / t2 < 4.0);
    }

    #[test]
    fn defaults_validate() {
        let c = SamplerConfig::new(8);
        assert!(c.validate(100).is_ok());
        assert!((c.alpha - 0.125).abs() < 1e-15);
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(SamplerConfig::new(0).validate(100).is_err());
        for delta in [0.0, 1.0] {
            let mut c = SamplerConfig::new(4);
            c.delta = delta;
            assert!(c.validate(100).is_err(), "delta = {delta}");
        }
        let mut c = SamplerConfig::new(4);
        c.alpha = -1.0;
        assert!(c.validate(100).is_err());
        let mut c = SamplerConfig::new(4);
        c.eta = (0.0, 1.0);
        assert!(c.validate(100).is_err());
        let mut c = SamplerConfig::new(4);
        c.step.c = 0.4;
        assert!(c.validate(100).is_err());
        assert!(SamplerConfig::new(4)
            .with_neighbor_sample(100)
            .validate(100)
            .is_err());
        assert!(SamplerConfig::new(4)
            .with_neighbor_sample(0)
            .validate(100)
            .is_err());
        assert!(SamplerConfig::new(4).validate(1).is_err());
    }

    #[test]
    fn builders_set_fields() {
        let c = SamplerConfig::new(4)
            .with_seed(9)
            .with_neighbor_sample(16)
            .with_simd(SimdPolicy::Force(Backend::Scalar));
        assert_eq!(c.seed, 9);
        assert_eq!(c.neighbor_sample, 16);
        assert_eq!(c.simd, SimdPolicy::Force(Backend::Scalar));
        assert_eq!(c.backend(), Backend::Scalar);
    }

    #[test]
    fn simd_policy_validates_against_host() {
        // Auto and forced-scalar always validate; a backend foreign to
        // this architecture must be rejected with its name in the error.
        assert!(SamplerConfig::new(4).validate(100).is_ok());
        assert!(SamplerConfig::new(4)
            .with_simd(SimdPolicy::Force(Backend::Scalar))
            .validate(100)
            .is_ok());
        #[cfg(target_arch = "x86_64")]
        let foreign = Backend::Neon;
        #[cfg(not(target_arch = "x86_64"))]
        let foreign = Backend::Avx2;
        let err = SamplerConfig::new(4)
            .with_simd(SimdPolicy::Force(foreign))
            .validate(100)
            .unwrap_err();
        assert!(err.to_string().contains(foreign.name()), "{err}");
    }

    #[test]
    fn unvalidated_backend_falls_back_to_scalar() {
        #[cfg(target_arch = "x86_64")]
        let foreign = Backend::Neon;
        #[cfg(not(target_arch = "x86_64"))]
        let foreign = Backend::Avx2;
        let c = SamplerConfig::new(4).with_simd(SimdPolicy::Force(foreign));
        assert_eq!(c.backend(), Backend::Scalar);
    }
}
