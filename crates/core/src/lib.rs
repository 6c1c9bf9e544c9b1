//! SG-MCMC inference for assortative mixed-membership stochastic
//! blockmodels — the core contribution of El-Helw et al., *Scalable
//! Overlapping Community Detection* (IPDPS-W 2016), reimplemented in Rust.
//!
//! The model (paper §II): each vertex `a` has a membership distribution
//! `pi_a` over `K` communities; each community `k` has a strength
//! `beta_k`; a pair links with probability `beta_k` when both draw the
//! same community `k` and with a small `delta` otherwise. Inference uses
//! stochastic-gradient Riemannian Langevin dynamics (SGRLD) on the
//! expanded-mean parameterizations `phi` (for `pi`) and `theta` (for
//! `beta`), processing one mini-batch of vertex pairs per iteration.
//!
//! One sampler runs one per-stage code path (`sampler/stage.rs`: one
//! `phi_update`, one `theta_gradient`, both on the `mmsb-simd` kernels),
//! under two names:
//!
//! * [`ParallelSampler`] — runs the chain on real cores: node-level
//!   parallelism over mini-batch vertices (the paper's OpenMP layer, here
//!   a from-scratch `mmsb-pool` fork-join pool). At one thread it is
//!   Algorithm 1 verbatim, the reference; at any other pool size the
//!   chain is bitwise-identical: all per-vertex randomness is derived
//!   from `(seed, iteration, vertex)`, never from thread schedule, and
//!   reductions use fixed chunk boundaries combined by a fixed binary
//!   tree.
//! * [`DistributedSampler`] — models the paper's cluster: the
//!   master–worker execution (paper §III) in lockstep simulation. It is
//!   a [`ParallelSampler`] plus the price of its steps: each step is the
//!   pool driver's, which also records every batch vertex's DKV keys,
//!   and `mmsb-netsim`'s `ClusterModel` then charges each rank's share
//!   of the record to virtual clocks — counted work at per-operation
//!   prices, communication and RDMA time from its network and DKV cost
//!   models, and pipelining (double-buffered `pi` loads, priced by
//!   `mmsb_netsim::dkv::price`) toggled by [`DistributedConfig`] —
//!   reproducing Figures 1–4 and Table III. No clock is read, so the
//!   virtual time is a function of (config, seed). It never sends a
//!   message and keeps one copy of `pi`, the master's state, so the
//!   chain is the pool driver's, bit for bit, at every worker count.
//!
//! # Quickstart
//!
//! ```
//! use mmsb_core::{ParallelSampler, SamplerConfig};
//! use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};
//! use mmsb_graph::heldout::HeldOut;
//! use mmsb_rand::Xoshiro256PlusPlus;
//!
//! let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
//! let gen = generate_planted(&PlantedConfig {
//!     num_vertices: 120, num_communities: 4, mean_community_size: 35.0,
//!     memberships_per_vertex: 1.2, internal_degree: 8.0, background_degree: 0.5,
//! }, &mut rng);
//! let (train, heldout) = HeldOut::split(&gen.graph, 40, &mut rng);
//!
//! let config = SamplerConfig::new(4).with_seed(1);
//! let mut sampler = ParallelSampler::with_threads(train, heldout, config, 1).unwrap();
//! sampler.run(50);
//! let perplexity = sampler.evaluate_perplexity();
//! assert!(perplexity.is_finite() && perplexity > 1.0);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod communities;
pub mod convergence;
pub mod eval;

mod checkpoint;
mod config;
#[cfg(test)]
mod kernels;
mod perplexity;
mod plane;
mod rngs;
mod sampler;
mod state;
mod workspace;

pub use checkpoint::{Checkpoint, CheckpointError, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
pub use config::{SamplerConfig, StepSize};
pub use perplexity::{link_probability, PerplexityAccumulator};
pub use plane::Plane;
pub use sampler::distributed::DistributedSampler;
pub use sampler::parallel::ParallelSampler;
pub use state::{ModelState, PHI_MIN};

// The cluster configuration lives with its price in `mmsb-netsim`;
// re-exported beside the sampler it configures.
pub use mmsb_netsim::DistributedConfig;

// Re-exported so downstream crates (CLI, benches) can name the kernel
// backend selection without depending on `mmsb-simd` directly.
pub use mmsb_simd::{Backend, PolicyError, SimdPolicy};

/// Errors from sampler construction and execution.
#[derive(Debug)]
pub enum CoreError {
    /// Configuration failed validation.
    InvalidConfig {
        /// Explanation of the failure.
        reason: String,
    },
    /// The graph is too small for the configured samplers.
    GraphTooSmall {
        /// Explanation of the failure.
        reason: String,
    },
    /// A checkpoint failed to encode, decode, or match the sampler.
    Checkpoint(checkpoint::CheckpointError),
    /// An out-of-core adjacency read failed in the middle of training.
    Graph(mmsb_ooc::OocError),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::InvalidConfig { reason } => write!(f, "invalid config: {reason}"),
            CoreError::GraphTooSmall { reason } => write!(f, "graph too small: {reason}"),
            CoreError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            CoreError::Graph(e) => write!(f, "out-of-core read failed: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Checkpoint(e) => Some(e),
            CoreError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<checkpoint::CheckpointError> for CoreError {
    fn from(e: checkpoint::CheckpointError) -> Self {
        CoreError::Checkpoint(e)
    }
}

impl From<mmsb_ooc::OocError> for CoreError {
    fn from(e: mmsb_ooc::OocError) -> Self {
        CoreError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = CoreError::InvalidConfig {
            reason: "k = 0".into(),
        };
        assert!(e.to_string().contains("k = 0"));
    }
}
