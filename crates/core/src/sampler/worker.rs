//! What a worker holds between the two passes of `update_phi`: its
//! vertices' sampled neighbor sets ([`SampledSets`]), which also write
//! each vertex's DKV keys into the step record the simulated cluster
//! prices ([`mmsb_netsim::StepRecord`]).

use crate::rngs;
use mmsb_graph::heldout::HeldOut;
use mmsb_graph::neighbor::NeighborSampler;
use mmsb_graph::{FxHashSet, VertexId};
use mmsb_rand::Xoshiro256PlusPlus;

/// Mini-batch vertices with their sampled neighbor sets and streams —
/// the first pass of every `update_phi`, kept in a
/// [`crate::workspace::Workspace`]. A pool worker samples one
/// `PHI_CHUNK` of them at a time.
pub(crate) struct SampledSets {
    ids: Vec<VertexId>,
    /// The sampled neighbor sets, concatenated: vertex `i`'s set is
    /// `sets[ends[i - 1]..ends[i]]`.
    sets: Vec<VertexId>,
    ends: Vec<usize>,
    /// Each vertex's `(seed, iteration, vertex)` stream, left where its
    /// neighbor draws ended so the noise draws continue it.
    rngs: Vec<Xoshiro256PlusPlus>,
    /// One vertex's set and the rejection loop's dedup set.
    set: Vec<VertexId>,
    seen: FxHashSet<u32>,
}

impl SampledSets {
    /// Buffers for `vertices` vertices of up to `neighbor_sample`
    /// neighbors each, reserved up front.
    pub fn with_capacity(vertices: usize, neighbor_sample: usize) -> Self {
        let mut seen = FxHashSet::default();
        // Rejection sampling can insert more candidates than it keeps
        // (held-out exclusions); over-reserve so the set never regrows.
        seen.reserve((neighbor_sample * 4).max(64));
        Self {
            ids: Vec::with_capacity(vertices),
            sets: Vec::with_capacity(vertices * neighbor_sample),
            ends: Vec::with_capacity(vertices),
            rngs: Vec::with_capacity(vertices),
            set: Vec::with_capacity(neighbor_sample),
            seen,
        }
    }

    /// Take `share` as the vertices at hand and sample each one's
    /// neighbor set from its own stream (so sampling order is
    /// immaterial).
    pub fn sample(
        &mut self,
        share: &[VertexId],
        sampler: &NeighborSampler,
        heldout: &HeldOut,
        seed: u64,
        iteration: u64,
    ) {
        self.ids.clear();
        self.ids.extend_from_slice(share);
        self.sets.clear();
        self.ends.clear();
        self.rngs.clear();
        for &a in share {
            let mut rng = rngs::vertex_rng(seed, iteration, a.0);
            sampler.sample_into(a, Some(heldout), &mut rng, &mut self.set, &mut self.seen);
            self.sets.extend_from_slice(&self.set);
            self.ends.push(self.sets.len());
            self.rngs.push(rng);
        }
    }

    /// Write each sampled vertex's DKV keys — its key count, then its own
    /// row, then its neighbors' rows — into its `stride` slots of `out`
    /// (one `StepRecord` slot range per vertex, in order).
    pub fn record_keys(&self, out: &mut [u32], stride: usize) {
        let mut lo = 0;
        let slots = out.chunks_exact_mut(stride);
        for ((&a, &hi), slot) in self.ids.iter().zip(&self.ends).zip(slots) {
            let set = &self.sets[lo..hi];
            slot[0] = set.len() as u32 + 1;
            slot[1] = a.0;
            for (key, b) in slot[2..].iter_mut().zip(set) {
                *key = b.0;
            }
            lo = hi;
        }
    }

    /// Vertex `i`'s sampled set (empty past the last vertex).
    pub fn set(&self, i: usize) -> &[VertexId] {
        match self.ends.get(i) {
            Some(&hi) => &self.sets[if i == 0 { 0 } else { self.ends[i - 1] }..hi],
            None => &[],
        }
    }

    /// Vertex `i`: its id, its sampled set and its stream.
    pub fn vertex(&mut self, i: usize) -> (VertexId, &[VertexId], &mut Xoshiro256PlusPlus) {
        let lo = if i == 0 { 0 } else { self.ends[i - 1] };
        (self.ids[i], &self.sets[lo..self.ends[i]], &mut self.rngs[i])
    }
}
