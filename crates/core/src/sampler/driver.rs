//! The chunked step of [`crate::ParallelSampler`], and the one pool
//! fan-out ([`fan_out`]) both drivers split their work with.
//!
//! Every pool size runs the *same* code over the *same* fixed chunk
//! boundaries; the only difference is whether the chunks of an iteration
//! execute inline (one thread) or on a [`ThreadPool`]. Because every
//! chunk writes only to the buffer region owned by its chunk index, and
//! the theta chunks are combined by a fixed binary tree, the resulting
//! chain is bitwise-identical for any thread count — including one.

use crate::sampler::engine::{Engine, PHI_CHUNK, THETA_CHUNK};
use crate::sampler::worker::share;
use crate::workspace::Workspace;
use mmsb_netsim::obs_bridge;
use mmsb_netsim::Phase;
use mmsb_obs::id as obs_id;
use mmsb_pool::{tree_combine_f64, SharedSlice, ThreadPool};
use std::ops::Range;

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

/// One pool thread per CPU the host makes available (at least one): the
/// default pool size of both samplers.
pub(crate) fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// How [`fan_out`] splits `n` rows into parts: part `p` owns rows
/// `start(p)..start(p + 1)`.
#[derive(Clone, Copy)]
pub(crate) enum Split {
    /// Parts of this many rows each, the last one possibly shorter.
    Chunks(usize),
    /// This many near-equal contiguous parts ([`share`]).
    Shares(usize),
}

impl Split {
    fn parts(self, n: usize) -> usize {
        match self {
            Split::Chunks(size) => n.div_ceil(size),
            Split::Shares(parts) => parts,
        }
    }

    fn start(self, n: usize, p: usize) -> usize {
        match self {
            Split::Chunks(size) => p.saturating_mul(size).min(n),
            Split::Shares(parts) => share(n, parts, p).start,
        }
    }
}

/// Run `body(ctx, part, rows, out_rows)` for every part of `split` on
/// `pool`, with `ctxs` as the per-thread scratch: `out` holds `n =
/// out.len() / width` rows of `width > 0` elements, and `out_rows` is
/// exclusive access to the part's `rows`. Every fan-out of both drivers
/// runs through here — fixed-size chunks, one theta row per chunk, a
/// lockstep rank's share — so each part writes only its own rows however
/// the pool schedules the parts.
pub(crate) fn fan_out<C, T, F>(
    pool: &ThreadPool,
    ctxs: &mut [C],
    out: &mut [T],
    width: usize,
    split: Split,
    body: F,
) where
    C: Send,
    T: Send,
    F: Fn(&mut C, usize, Range<usize>, &mut [T]) + Sync,
{
    let n = out.len() / width;
    let out = SharedSlice::new(out);
    pool.run_with(ctxs, split.parts(n), |ctx, part| {
        let (lo, hi) = (split.start(n, part), split.start(n, part + 1));
        assert!(
            lo <= hi && hi <= n,
            "part {part} claims rows {lo}..{hi} of {n}"
        );
        // SAFETY: `split.start` is non-decreasing in the part by
        // construction (fixed-size chunks or `share`), so distinct parts
        // own disjoint row ranges, which the assert keeps within `out`.
        let rows = unsafe { out.range(lo * width, hi * width) };
        body(ctx, part, lo..hi, rows);
    });
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
        fan_out(
            pool,
            workspaces,
            &mut bufs.updates[..nv * k],
            k,
            Split::Chunks(PHI_CHUNK),
            |ws, _, vs, rows| eng.update_phi(&eng.mb_vertices[vs], ws, rows),
        );
    }

    // Stage 3: barrier, then apply.
    {
        let _p = PhaseObs::open(Phase::UpdatePi);
        engine.apply_phi_updates(0..nv, &bufs.updates[..nv * k]);
    }

    // Stage 4: theta update against the fresh pi.
    let _p_theta = PhaseObs::open(Phase::UpdateBetaTheta);
    let n_chunks = engine.theta_chunk_count();
    let n_pairs = engine.mb.pairs.len();
    ensure_len(&mut bufs.chunk_grads, n_chunks * 2 * k);
    {
        let eng = &*engine;
        fan_out(
            pool,
            workspaces,
            &mut bufs.chunk_grads[..n_chunks * 2 * k],
            2 * k,
            Split::Chunks(1),
            |ws, chunk, _, grad| {
                let lo = chunk * THETA_CHUNK;
                let hi = ((chunk + 1) * THETA_CHUNK).min(n_pairs);
                eng.theta_gradient(lo, hi, &mut ws.stage, grad);
            },
        );
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
        fan_out(
            pool,
            workspaces,
            &mut bufs.probs[..n],
            1,
            Split::Chunks(PERPLEXITY_CHUNK),
            |_, _, pairs, probs| eng.perplexity_probs_into(pairs.start, pairs.end, probs),
        );
    }
    engine.record_perplexity_sample(&bufs.probs[..n])
}
