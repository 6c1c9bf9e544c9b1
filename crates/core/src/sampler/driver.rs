//! The chunked step of [`crate::ParallelSampler`].
//!
//! Every pool size runs the *same* code over the *same* fixed chunk
//! boundaries; the only difference is whether the chunks of an iteration
//! execute inline (one thread) or on a [`ThreadPool`]. Because every
//! chunk writes only to the buffer region owned by its chunk index, and
//! the theta chunks are combined by a fixed binary tree, the resulting
//! chain is bitwise-identical for any thread count — including one.

use crate::sampler::engine::{Engine, PHI_CHUNK, THETA_CHUNK};
use crate::workspace::Workspace;
use mmsb_netsim::obs_bridge;
use mmsb_netsim::Phase;
use mmsb_obs::id as obs_id;
use mmsb_pool::{tree_combine_f64, SharedSlice, ThreadPool};

/// Held-out pairs per perplexity chunk.
const PERPLEXITY_CHUNK: usize = 1024;

/// Phase-scoped instrumentation: opens the phase's span and (when metrics
/// are on) a stopwatch, and records the per-phase latency histogram on
/// drop. Everything it touches is a pre-sized atomic slot, so it is safe
/// on the zero-allocation hot path that `tests/zero_alloc.rs` gates.
struct PhaseObs {
    hist: usize,
    sw: Option<mmsb_obs::clock::Stopwatch>,
    _span: mmsb_obs::Span,
}

impl PhaseObs {
    fn open(phase: Phase) -> Self {
        Self {
            hist: obs_bridge::phase_hist_id(phase),
            sw: mmsb_obs::metrics_on().then(mmsb_obs::clock::Stopwatch::start),
            _span: mmsb_obs::span(obs_bridge::phase_span_id(phase)),
        }
    }
}

impl Drop for PhaseObs {
    fn drop(&mut self) {
        if let Some(sw) = self.sw {
            mmsb_obs::hist_record_ns(self.hist, sw.elapsed_ns());
        }
    }
}

/// Driver-owned per-iteration buffers, allocated once and reused.
pub(crate) struct StepBuffers {
    /// Flat phi updates: one `K`-row per mini-batch vertex.
    updates: Vec<f64>,
    /// Per-chunk theta gradients (`2K` each), combined in place.
    chunk_grads: Vec<f64>,
    /// Per-pair held-out probabilities.
    probs: Vec<f64>,
}

impl StepBuffers {
    // xlint: allow(hot-path-alloc) — setup-time construction: buffers are allocated once per engine and reused by every step
    pub fn new(engine: &Engine) -> Self {
        let k = engine.config.k;
        Self {
            updates: vec![0.0; engine.max_batch_vertices() * k],
            chunk_grads: vec![0.0; engine.max_theta_chunks() * 2 * k],
            probs: vec![0.0; engine.heldout.len()],
        }
    }
}

/// Grow `buf` to at least `len` elements. A no-op in the steady state —
/// the buffers are pre-sized from worst-case bounds — but keeps the
/// drivers correct if `replace_graph` raises those bounds.
fn ensure_len(buf: &mut Vec<f64>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// One SG-MCMC iteration (Algorithm 1), chunked:
///
/// 1. draw the mini-batch (master RNG),
/// 2. per-vertex phi updates in [`PHI_CHUNK`]-vertex chunks, each chunk
///    writing its rows of the flat update buffer,
/// 3. apply the updates at the stage barrier,
/// 4. per-chunk theta gradients (`THETA_CHUNK` pairs each), combined by
///    a fixed binary tree, then the theta SGRLD step (theta RNG).
// xlint: allow(hot-path-panic) — updates/chunk_grads are sized in StepBuffers::new from the same engine maxima that bound every chunk range, so the disjoint per-chunk windows stay in bounds
pub(crate) fn step(
    engine: &mut Engine,
    pool: &ThreadPool,
    workspaces: &mut [Workspace],
    bufs: &mut StepBuffers,
) {
    let _step_span = mmsb_obs::span(obs_id::S_STEP);
    let step_sw = mmsb_obs::metrics_on().then(mmsb_obs::clock::Stopwatch::start);
    {
        let _p = PhaseObs::open(Phase::DrawMinibatch);
        engine.refresh_minibatch();
    }
    let k = engine.config.k;

    // Stage 2: phi updates.
    let nv = engine.mb_vertices.len();
    ensure_len(&mut bufs.updates, nv * k);
    {
        let _p = PhaseObs::open(Phase::UpdatePhi);
        let eng = &*engine;
        let out = SharedSlice::new(&mut bufs.updates[..nv * k]);
        pool.run_with(workspaces, nv.div_ceil(PHI_CHUNK), |ws, chunk| {
            let lo = chunk * PHI_CHUNK;
            let hi = ((chunk + 1) * PHI_CHUNK).min(nv);
            // SAFETY: chunk ranges [lo*k, hi*k) are pairwise disjoint.
            let chunk_out = unsafe { out.range(lo * k, hi * k) };
            for (j, idx) in (lo..hi).enumerate() {
                eng.update_phi_local(
                    eng.mb_vertices[idx],
                    ws,
                    &mut chunk_out[j * k..(j + 1) * k],
                );
            }
        });
    }

    // Stage 3: barrier, then apply.
    {
        let _p = PhaseObs::open(Phase::UpdatePi);
        engine.apply_phi_updates_flat(&bufs.updates[..nv * k]);
    }

    // Stage 4: theta update against the fresh pi.
    let _p_theta = PhaseObs::open(Phase::UpdateBetaTheta);
    let n_chunks = engine.theta_chunk_count();
    let n_pairs = engine.mb.pairs.len();
    ensure_len(&mut bufs.chunk_grads, n_chunks * 2 * k);
    {
        let eng = &*engine;
        let out = SharedSlice::new(&mut bufs.chunk_grads[..n_chunks * 2 * k]);
        pool.run_with(workspaces, n_chunks, |ws, chunk| {
            // SAFETY: one disjoint 2K row per chunk.
            let grad = unsafe { out.range(chunk * 2 * k, (chunk + 1) * 2 * k) };
            let lo = chunk * THETA_CHUNK;
            let hi = ((chunk + 1) * THETA_CHUNK).min(n_pairs);
            eng.theta_gradient(lo, hi, &mut ws.stage, grad);
        });
    }
    tree_combine_f64(&mut bufs.chunk_grads[..n_chunks * 2 * k], 2 * k, n_chunks);
    engine.apply_theta_update(&bufs.chunk_grads[..2 * k]);
    drop(_p_theta);

    engine.bump_iteration();
    mmsb_obs::counter_add(obs_id::C_SAMPLER_STEPS, 1);
    if let Some(sw) = step_sw {
        mmsb_obs::hist_record_ns(obs_id::H_STEP_NS, sw.elapsed_ns());
    }
}

/// Evaluate held-out perplexity: each chunk fills its disjoint slice of
/// one flat probability buffer (no per-chunk vectors), then the sample is
/// recorded in pair order.
// xlint: allow(hot-path-panic) — probs is sized to heldout.len() in StepBuffers::new and each chunk writes only its disjoint pair-range slice of it
pub(crate) fn evaluate_perplexity(
    engine: &mut Engine,
    pool: &ThreadPool,
    workspaces: &mut [Workspace],
    bufs: &mut StepBuffers,
) -> f64 {
    let _p = PhaseObs::open(Phase::Perplexity);
    let n = engine.heldout.len();
    ensure_len(&mut bufs.probs, n);
    {
        let eng = &*engine;
        let out = SharedSlice::new(&mut bufs.probs[..n]);
        pool.run_with(workspaces, n.div_ceil(PERPLEXITY_CHUNK), |_ws, chunk| {
            let lo = chunk * PERPLEXITY_CHUNK;
            let hi = ((chunk + 1) * PERPLEXITY_CHUNK).min(n);
            // SAFETY: chunk ranges are pairwise disjoint.
            let slice = unsafe { out.range(lo, hi) };
            eng.perplexity_probs_into(lo, hi, slice);
        });
    }
    engine.record_perplexity_sample(&bufs.probs[..n])
}
