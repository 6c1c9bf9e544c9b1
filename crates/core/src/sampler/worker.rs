//! One worker's `update_phi` stage over DKV rows — the routine both
//! master–worker drivers run — and the worker-side buffers of the other
//! stages.
//!
//! The lockstep [`crate::DistributedSampler`] calls it once per rank on
//! the master's thread; each [`crate::train_threaded`] worker owns one.
//! They differ only in who hands over the adjacency (the graph backend
//! vs. the scattered message), so their numerics are identical by
//! construction.

use super::stage::{phi_update, PhiParams, StageScratch};
use crate::rngs;
use crate::state::PHI_MIN;
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

/// Per-worker state: the `update_phi` stage plus the staging buffers of
/// the write-back, `theta` and perplexity stages. Every buffer persists
/// across iterations, so a warmed worker allocates nothing (pinned for
/// the lockstep driver by `crates/core/tests/zero_alloc.rs`).
pub(crate) struct PhiWorker {
    /// The share: this worker's mini-batch vertices.
    ids: Vec<VertexId>,
    /// Their sampled neighbor sets, concatenated: vertex `i`'s set is
    /// `sets[ends[i - 1]..ends[i]]`.
    sets: Vec<VertexId>,
    ends: Vec<usize>,
    /// Each vertex's `(seed, iteration, vertex)` stream, left where its
    /// neighbor draws ended so the noise draws continue it.
    rngs: Vec<Xoshiro256PlusPlus>,
    /// Vertices consumed by [`PhiWorker::on_chunk`] since the last
    /// [`PhiWorker::sample`].
    done: usize,
    set: Vec<VertexId>,
    seen: FxHashSet<u32>,
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
            ids: Vec::new(),
            sets: Vec::new(),
            ends: Vec::new(),
            rngs: Vec::new(),
            done: 0,
            set: Vec::new(),
            seen: FxHashSet::default(),
            linked: Vec::new(),
            phi_a: vec![0.0; k],
            scratch: StageScratch::new(k),
            keys: Vec::new(),
            rows: Vec::new(),
            grad: vec![0.0; 2 * k],
        }
    }

    /// Take `share` as this iteration's vertices and sample each one's
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
        self.done = 0;
        for &a in share {
            let mut rng = rngs::vertex_rng(seed, iteration, a.0);
            sampler.sample_into(a, Some(heldout), &mut rng, &mut self.set, &mut self.seen);
            self.sets.extend_from_slice(&self.set);
            self.ends.push(self.sets.len());
            self.rngs.push(rng);
        }
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
        let mut lo = 0;
        for (chunk, ends) in self
            .ids
            .chunks(chunk_vertices)
            .zip(self.ends.chunks(chunk_vertices))
        {
            let before = keys.len();
            for (&a, &hi) in chunk.iter().zip(ends) {
                keys.push(a.0);
                keys.extend(self.sets[lo..hi].iter().map(|b| b.0));
                lo = hi;
            }
            seg_lens.push(keys.len() - before);
        }
    }

    /// Consume one loaded chunk: `rows` holds the staged keys' DKV rows
    /// (`K + 1` floats each, `pi ++ sum(phi)`) in key order. For each
    /// vertex of the chunk, `mark(i, a, set, linked)` fills the
    /// observations of vertex `i` of the share against its sampled set,
    /// and the new `phi` row goes to row `i` of `out` (stride `K`).
    ///
    /// Bit-identical to [`super::Engine::update_phi_local`]: the store
    /// rows are the same f32 values [`crate::ModelState`] holds, and
    /// `phi_a` is decoded exactly as `ModelState::phi_row` decodes it.
    pub fn on_chunk(
        &mut self,
        params: &PhiParams,
        beta: &[f64],
        rows: &[f32],
        mut mark: impl FnMut(usize, VertexId, &[VertexId], &mut Vec<bool>),
        out: &mut [f64],
    ) {
        let k = self.phi_a.len();
        let row_len = k + 1;
        let mut offset = 0;
        while offset * row_len < rows.len() {
            let i = self.done;
            let lo = if i == 0 { 0 } else { self.ends[i - 1] };
            let set = &self.sets[lo..self.ends[i]];
            let own = &rows[offset * row_len..(offset + 1) * row_len];
            let neighbor_rows = &rows[(offset + 1) * row_len..(offset + 1 + set.len()) * row_len];
            mark(i, self.ids[i], set, &mut self.linked);
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
                &mut self.rngs[i],
                &mut self.scratch,
                &mut out[i * k..(i + 1) * k],
            );
            offset += 1 + set.len();
            self.done += 1;
        }
    }
}
