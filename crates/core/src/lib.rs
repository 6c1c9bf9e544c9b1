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
//! Three drivers run the same per-stage code (`sampler/stage.rs`: one
//! `phi_update`, one `theta_gradient`, both on the `mmsb-simd` kernels):
//!
//! * [`ParallelSampler`] — node-level parallelism over mini-batch vertices
//!   (the paper's OpenMP layer, here a from-scratch `mmsb-pool` fork-join
//!   pool). At one thread it is Algorithm 1 verbatim, the reference; at
//!   any other pool size the chain is bitwise-identical: all per-vertex
//!   randomness is derived from `(seed, iteration, vertex)`, never from
//!   thread schedule, and reductions use fixed chunk boundaries combined
//!   by a fixed binary tree.
//! * [`DistributedSampler`] — the master–worker cluster execution
//!   (paper §III) over the `mmsb-dkv` sharded store, run in lockstep
//!   simulation: per-rank compute is executed for real and measured,
//!   communication and RDMA time are charged to virtual clocks from the
//!   `mmsb-netsim` cost models, and pipelining (double-buffered `pi`
//!   loads) can be toggled — reproducing Figures 1–4 and Table III. It
//!   never sends a message.
//! * [`train_threaded`] — the same master–worker protocol with real OS
//!   threads and `mmsb-comm` message passing, whose only consumer it is
//!   (for functional/concurrency validation; it produces the identical
//!   chain and perplexity trace).
//!
//! Both master–worker drivers share `sampler/worker.rs` (one worker's
//! `update_phi` routine and stage buffers) and load `pi` through the one
//! `mmsb_dkv::pipeline::ChunkReader`, `Single` or `Double`.
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
mod compute_model;
mod config;
#[cfg(test)]
mod kernels;
mod perplexity;
mod posterior;
mod rngs;
mod sampler;
mod state;
mod workspace;

pub use checkpoint::{Checkpoint, CheckpointError, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
pub use compute_model::NodeComputeModel;
pub use config::{SamplerConfig, StateLayout, StepSize};
pub use perplexity::{link_probability, PerplexityAccumulator};
pub use posterior::PosteriorMean;
pub use sampler::distributed::{DistributedConfig, DistributedSampler};
pub use sampler::parallel::ParallelSampler;
pub use sampler::threaded::{train_threaded, ThreadedOutcome};
pub use state::{ModelState, PHI_MIN};

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
    /// A distributed-store failure (propagated from `mmsb-dkv`).
    Store(mmsb_dkv::DkvError),
    /// A checkpoint failed to encode, decode, or match the sampler.
    Checkpoint(checkpoint::CheckpointError),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::InvalidConfig { reason } => write!(f, "invalid config: {reason}"),
            CoreError::GraphTooSmall { reason } => write!(f, "graph too small: {reason}"),
            CoreError::Store(e) => write!(f, "store error: {e}"),
            CoreError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Store(e) => Some(e),
            CoreError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mmsb_dkv::DkvError> for CoreError {
    fn from(e: mmsb_dkv::DkvError) -> Self {
        CoreError::Store(e)
    }
}

impl From<checkpoint::CheckpointError> for CoreError {
    fn from(e: checkpoint::CheckpointError) -> Self {
        CoreError::Checkpoint(e)
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
        let e = CoreError::Store(mmsb_dkv::DkvError::KeyOutOfRange {
            key: 1,
            num_keys: 1,
        });
        assert!(e.to_string().contains("store"));
    }
}
