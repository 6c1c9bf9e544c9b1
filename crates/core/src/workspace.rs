//! Per-thread scratch buffers for the zero-allocation hot path.
//!
//! Each pool worker owns one [`Workspace`]; every buffer the per-vertex
//! `phi` update and the per-chunk `theta` gradient need lives here, so the
//! steady-state iteration loop performs no heap allocation. Workspace
//! contents are pure scratch — they never influence results, which is why
//! dynamic chunk-to-worker assignment cannot perturb the chain.

use crate::sampler::stage::StageScratch;
use mmsb_graph::{FxHashSet, VertexId};
use mmsb_ooc::BlockCache;

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
    /// Sampled neighbor set.
    pub neighbors: Vec<VertexId>,
    /// Dedup set for neighbor rejection sampling.
    pub seen: FxHashSet<u32>,
    /// This worker's block cache for out-of-core adjacency reads
    /// (`None` for resident graphs). Pure scratch, like everything else
    /// here — cache contents never influence results.
    pub graph_cache: Option<BlockCache>,
}

impl Workspace {
    /// Create a workspace sized for `k` communities and neighbor sets of
    /// up to `neighbor_sample` vertices, reading out-of-core adjacency
    /// through `graph_cache` (drivers create one per workspace via
    /// `GraphBackend::new_cache`).
    pub fn new(k: usize, neighbor_sample: usize, graph_cache: Option<BlockCache>) -> Self {
        let mut seen = FxHashSet::default();
        // Rejection sampling can insert more candidates than it keeps
        // (held-out exclusions); over-reserve so the set never regrows.
        seen.reserve((neighbor_sample * 4).max(64));
        Self {
            phi_a: vec![0.0; k],
            rows: Vec::with_capacity(neighbor_sample * k),
            linked: Vec::with_capacity(neighbor_sample),
            stage: StageScratch::new(k),
            neighbors: Vec::with_capacity(neighbor_sample),
            seen,
            graph_cache,
        }
    }
}
