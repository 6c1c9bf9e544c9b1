//! Per-worker scratch buffers for the zero-allocation hot path.
//!
//! Each pool worker owns one [`Workspace`]: every buffer the two-pass
//! `phi` update and the `theta` gradient need lives here, so the
//! steady-state iteration loop performs no heap allocation. Workspace
//! contents are pure scratch — they never influence results, which is why
//! dynamic chunk-to-worker assignment cannot perturb the chain.

use crate::sampler::engine::PHI_CHUNK;
use crate::sampler::stage::StageScratch;
use crate::sampler::worker::SampledSets;

/// Reusable scratch for one worker thread.
pub(crate) struct Workspace {
    /// The center vertex's `phi` row (`K` f64s).
    pub phi_a: Vec<f64>,
    /// Gathered neighbor `pi` rows (`|V_n| * K` f32s).
    pub rows: Vec<f32>,
    /// Per-neighbor observations `y_ab`.
    pub linked: Vec<bool>,
    /// Noise and plane scratch of the phi/theta kernels.
    pub stage: StageScratch,
    /// The vertices at hand with their sampled neighbor sets and streams
    /// (the first `phi` pass): one `PHI_CHUNK`.
    pub sampled: SampledSets,
}

impl Workspace {
    /// Create a workspace sized for `k` communities and chunks of
    /// [`PHI_CHUNK`] vertices with neighbor sets of up to
    /// `neighbor_sample` vertices.
    pub fn new(k: usize, neighbor_sample: usize) -> Self {
        Self {
            phi_a: vec![0.0; k],
            rows: Vec::with_capacity(neighbor_sample * k),
            linked: Vec::with_capacity(neighbor_sample),
            stage: StageScratch::new(k),
            sampled: SampledSets::with_capacity(PHI_CHUNK, neighbor_sample),
        }
    }
}
