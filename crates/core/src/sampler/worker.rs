//! What a worker holds between the two passes of `update_phi`: its
//! vertices' sampled neighbor sets ([`SampledSets`]), and how the
//! lockstep [`crate::DistributedSampler`] splits a mini-batch and the
//! held-out pairs over its ranks ([`share`]).

use crate::rngs;
use mmsb_graph::heldout::HeldOut;
use mmsb_graph::neighbor::NeighborSampler;
use mmsb_graph::{FxHashSet, VertexId};
use mmsb_rand::Xoshiro256PlusPlus;
use std::ops::Range;

/// Part `p` of an even contiguous split of `len` items into `parts`
/// (the first `len % parts` parts get one extra item).
pub(crate) fn share(len: usize, parts: usize, p: usize) -> Range<usize> {
    let base = len / parts;
    let extra = len % parts;
    let lo = p * base + p.min(extra);
    lo..lo + base + usize::from(p < extra)
}

/// Mini-batch vertices with their sampled neighbor sets and streams —
/// the first pass of every `update_phi`, kept in a
/// [`crate::workspace::Workspace`]. A pool worker samples one
/// `PHI_CHUNK` of them at a time, a lockstep rank its whole share.
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

    /// The DKV keys a worker reads for the sampled vertices — per vertex
    /// its own row, then its neighbors' rows — with each vertex's
    /// exclusive end offset in `keys`.
    pub fn dkv_keys(&self, keys: &mut Vec<u32>, ends: &mut Vec<usize>) {
        keys.clear();
        ends.clear();
        let mut lo = 0;
        for (&a, &hi) in self.ids.iter().zip(&self.ends) {
            keys.push(a.0);
            keys.extend(self.sets[lo..hi].iter().map(|b| b.0));
            ends.push(keys.len());
            lo = hi;
        }
    }

    /// Vertex `i`: its id, its sampled set and its stream.
    pub fn vertex(&mut self, i: usize) -> (VertexId, &[VertexId], &mut Xoshiro256PlusPlus) {
        let lo = if i == 0 { 0 } else { self.ends[i - 1] };
        (self.ids[i], &self.sets[lo..self.ends[i]], &mut self.rngs[i])
    }
}
