//! The chunked step of [`crate::ParallelSampler`], and the one pool
//! fan-out ([`fan_out`]) both drivers split their work with.
//!
//! Every pool size runs the *same* code over the *same* fixed chunk
//! boundaries; the only difference is whether the chunks of an iteration
//! execute inline (one thread) or on a [`ThreadPool`]. Because every
//! chunk writes only to the buffer region owned by its chunk index, and
//! the theta chunks are combined by a fixed binary tree, the resulting
//! chain is bitwise-identical for any thread count — including one.
//!
//! The stages ([`phi_stage`], [`apply_phi_stage`], [`theta_stage`],
//! [`perplexity_stage`]) open no wall-clock phase of their own: [`step`]
//! and [`evaluate_perplexity`] time them, while the lockstep
//! [`crate::DistributedSampler`] runs the very same stages and only
//! prices them, so both drivers walk one chain.

use crate::sampler::engine::{Engine, PHI_CHUNK};
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

/// The first `len` elements of `buf`, grown to hold them first. Growing
/// is a no-op in the steady state — the buffers are pre-sized from
/// worst-case bounds — but keeps the drivers correct if `replace_graph`
/// raises those bounds.
// xlint: allow(hot-path-panic) — `buf` has just been grown to at least `len` elements
fn prefix(buf: &mut Vec<f64>, len: usize) -> &mut [f64] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
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
fn fan_out<C, T, F>(
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

/// Stage 2: every mini-batch vertex's new `phi` row, one `K`-row of the
/// step's update buffer each, computed by `body` over the parts of
/// `split` on `pool` (see [`fan_out`]).
pub(crate) fn phi_stage<C, F>(
    engine: &Engine,
    pool: &ThreadPool,
    ctxs: &mut [C],
    bufs: &mut StepBuffers,
    split: Split,
    body: F,
) where
    C: Send,
    F: Fn(&mut C, usize, Range<usize>, &mut [f64]) + Sync,
{
    let (nv, k) = (engine.mb_vertices.len(), engine.config.k);
    fan_out(pool, ctxs, prefix(&mut bufs.updates, nv * k), k, split, body);
}

/// Stage 3: the barrier, then every `phi` update [`phi_stage`] computed
/// is applied.
pub(crate) fn apply_phi_stage(engine: &mut Engine, bufs: &mut StepBuffers) {
    let n = engine.mb_vertices.len() * engine.config.k;
    engine.apply_phi_updates(prefix(&mut bufs.updates, n));
}

/// Stage 4: per-chunk theta gradients (`THETA_CHUNK` pairs each) against
/// the fresh `pi`, combined by a fixed binary tree, then the theta SGRLD
/// step (theta RNG). The chunks, not the pool or the caller's split of
/// the work, fix the summation order.
// xlint: allow(hot-path-panic) — `grads` holds `n_chunks >= 1` rows of `k2`, so its first row is in bounds
pub(crate) fn theta_stage<C: AsMut<Workspace> + Send>(
    engine: &mut Engine,
    pool: &ThreadPool,
    ctxs: &mut [C],
    bufs: &mut StepBuffers,
) {
    let k2 = 2 * engine.config.k;
    let n_chunks = engine.theta_chunk_count();
    let grads = prefix(&mut bufs.chunk_grads, n_chunks * k2);
    {
        let eng = &*engine;
        fan_out(pool, ctxs, grads, k2, Split::Chunks(1), |ctx, chunk, _, grad| {
            eng.theta_gradient(chunk, &mut ctx.as_mut().stage, grad)
        });
    }
    tree_combine_f64(grads, k2, n_chunks);
    engine.apply_theta_update(&grads[..k2]);
}

/// The held-out perplexity: each [`PERPLEXITY_CHUNK`] fills its disjoint
/// slice of one flat probability buffer (no per-chunk vectors), then the
/// sample is recorded in pair order.
pub(crate) fn perplexity_stage<C: Send>(
    engine: &mut Engine,
    pool: &ThreadPool,
    ctxs: &mut [C],
    bufs: &mut StepBuffers,
) -> f64 {
    let probs = prefix(&mut bufs.probs, engine.heldout.len());
    {
        let eng = &*engine;
        fan_out(
            pool,
            ctxs,
            probs,
            1,
            Split::Chunks(PERPLEXITY_CHUNK),
            |_, _, pairs, probs| eng.perplexity_probs_into(pairs.start, pairs.end, probs),
        );
    }
    engine.record_perplexity_sample(probs)
}

/// One SG-MCMC iteration (Algorithm 1), chunked: the master draws the
/// mini-batch (master RNG), then [`phi_stage`] in [`PHI_CHUNK`]-vertex
/// chunks, [`apply_phi_stage`] and [`theta_stage`], each timed as its
/// phase.
// xlint: allow(hot-path-panic) — fan_out hands each chunk a row range within the `mb_vertices.len()` rows of the update buffer
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
    {
        let _p = PhaseObs::open(Phase::UpdatePhi);
        let eng = &*engine;
        phi_stage(
            eng,
            pool,
            workspaces,
            bufs,
            Split::Chunks(PHI_CHUNK),
            |ws, _, vs, rows| eng.update_phi(&eng.mb_vertices[vs], ws, rows),
        );
    }
    {
        let _p = PhaseObs::open(Phase::UpdatePi);
        apply_phi_stage(engine, bufs);
    }
    {
        let _p = PhaseObs::open(Phase::UpdateBetaTheta);
        theta_stage(engine, pool, workspaces, bufs);
    }
    engine.bump_iteration();
    mmsb_obs::counter_add(obs_id::C_SAMPLER_STEPS, 1);
    if let Some(sw) = step_sw {
        mmsb_obs::hist_record_ns(obs_id::H_STEP_NS, sw.elapsed_ns());
    }
}

/// Evaluate held-out perplexity ([`perplexity_stage`]), timed as its
/// phase.
pub(crate) fn evaluate_perplexity(
    engine: &mut Engine,
    pool: &ThreadPool,
    workspaces: &mut [Workspace],
    bufs: &mut StepBuffers,
) -> f64 {
    let _p = PhaseObs::open(Phase::Perplexity);
    perplexity_stage(engine, pool, workspaces, bufs)
}
