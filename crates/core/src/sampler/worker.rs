//! One worker's `update_phi` stage over DKV rows and the worker-side
//! buffers of the other stages. The lockstep
//! [`crate::DistributedSampler`] runs it once per rank on the master's
//! thread.

use super::stage::{phi_update, PhiParams, StageScratch};
use crate::rngs;
use crate::state::PHI_MIN;
use mmsb_graph::access::mark_links;
use mmsb_graph::heldout::HeldOut;
use mmsb_graph::neighbor::NeighborSampler;
use mmsb_graph::{FxHashSet, GraphAccess, VertexId};
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
/// the first pass of every `update_phi`. The pool driver's
/// [`crate::workspace::Workspace`] holds one `PHI_CHUNK` of them, a
/// [`PhiWorker`] its whole share.
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

    /// Vertex `i`: its id, its sampled set and its stream.
    pub fn vertex(&mut self, i: usize) -> (VertexId, &[VertexId], &mut Xoshiro256PlusPlus) {
        let lo = if i == 0 { 0 } else { self.ends[i - 1] };
        (self.ids[i], &self.sets[lo..self.ends[i]], &mut self.rngs[i])
    }
}

/// Per-worker state: the `update_phi` stage plus the staging buffers of
/// the write-back, `theta` and perplexity stages. Every buffer persists
/// across iterations, so a warmed worker allocates nothing (pinned for
/// the lockstep driver by `crates/core/tests/zero_alloc.rs`).
pub(crate) struct PhiWorker {
    /// The share: this worker's mini-batch vertices and their sets.
    sampled: SampledSets,
    /// Vertices consumed by [`PhiWorker::on_chunk`] since the last
    /// [`PhiWorker::sample`].
    done: usize,
    linked: Vec<bool>,
    phi_a: Vec<f64>,
    /// Kernel scratch; the worker's `theta` stage borrows it too.
    pub scratch: StageScratch,
    /// DKV keys of the stage at hand: the share's vertices (write-back),
    /// its pairs' endpoints (`theta`) or its held-out pairs' endpoints.
    pub keys: Vec<u32>,
    /// DKV rows (`K + 1` floats each) read or written for `keys`.
    pub rows: Vec<f32>,
    /// This worker's `theta` gradient (`2K`).
    pub grad: Vec<f64>,
}

impl PhiWorker {
    pub fn new(k: usize) -> Self {
        Self {
            sampled: SampledSets::with_capacity(0, 0),
            done: 0,
            linked: Vec::new(),
            phi_a: vec![0.0; k],
            scratch: StageScratch::new(k),
            keys: Vec::new(),
            rows: Vec::new(),
            grad: vec![0.0; 2 * k],
        }
    }

    /// Take `share` as this iteration's vertices and sample their
    /// neighbor sets ([`SampledSets::sample`]).
    pub fn sample(
        &mut self,
        share: &[VertexId],
        sampler: &NeighborSampler,
        heldout: &HeldOut,
        seed: u64,
        iteration: u64,
    ) {
        self.sampled
            .sample(share, sampler, heldout, seed, iteration);
        self.done = 0;
    }

    /// Stage the DKV keys of the sampled share — per vertex its own row,
    /// then its neighbors' rows — in load chunks of `chunk_vertices`
    /// vertices. A chunk's key count varies with the sampled sets, hence
    /// the segment table.
    pub fn stage_keys(
        &self,
        chunk_vertices: usize,
        keys: &mut Vec<u32>,
        seg_lens: &mut Vec<usize>,
    ) {
        keys.clear();
        seg_lens.clear();
        let SampledSets {
            ids, sets, ends, ..
        } = &self.sampled;
        let mut lo = 0;
        for (chunk, ends) in ids.chunks(chunk_vertices).zip(ends.chunks(chunk_vertices)) {
            let before = keys.len();
            for (&a, &hi) in chunk.iter().zip(ends) {
                keys.push(a.0);
                keys.extend(sets[lo..hi].iter().map(|b| b.0));
                lo = hi;
            }
            seg_lens.push(keys.len() - before);
        }
    }

    /// Consume one loaded chunk: `rows` holds the staged keys' DKV rows
    /// (`K + 1` floats each, `pi ++ sum(phi)`) in key order. Each vertex
    /// of the chunk has its links marked against its list in `graph`,
    /// and the new `phi` row of vertex `i` of the share goes to row `i`
    /// of `out` (stride `K`).
    ///
    /// Bit-identical to [`super::Engine::update_phi_chunk`]: the store
    /// rows are the same f32 values [`crate::ModelState`] holds, and
    /// `phi_a` is decoded exactly as `ModelState::phi_row` decodes it.
    pub fn on_chunk(
        &mut self,
        params: &PhiParams,
        beta: &[f64],
        rows: &[f32],
        graph: &mut impl GraphAccess,
        out: &mut [f64],
    ) {
        let k = self.phi_a.len();
        let row_len = k + 1;
        let mut offset = 0;
        while offset * row_len < rows.len() {
            let i = self.done;
            let (a, set, rng) = self.sampled.vertex(i);
            let own = &rows[offset * row_len..(offset + 1) * row_len];
            let neighbor_rows = &rows[(offset + 1) * row_len..(offset + 1 + set.len()) * row_len];
            mark_links(graph.neighbors(a), set, &mut self.linked);
            let sum = own[k] as f64;
            for (phi, &pi) in self.phi_a.iter_mut().zip(own) {
                *phi = (pi as f64 * sum).max(PHI_MIN);
            }
            phi_update(
                params,
                beta,
                &self.phi_a,
                neighbor_rows,
                row_len,
                &self.linked,
                rng,
                &mut self.scratch,
                &mut out[i * k..(i + 1) * k],
            );
            offset += 1 + set.len();
            self.done += 1;
        }
    }
}
