//! The chunked step of [`crate::ParallelSampler`] and the one pool
//! fan-out ([`fan_out`]) it splits its work with.
//!
//! Every pool size runs the *same* code over the *same* fixed chunk
//! boundaries; the only difference is whether the chunks of an iteration
//! execute inline (one thread) or on a [`ThreadPool`]. Because every
//! chunk writes only to the buffer region owned by its chunk index, and
//! the theta chunks are combined by a fixed binary tree, the resulting
//! chain is bitwise-identical for any thread count — including one.
//!
//! On an out-of-core graph the step also stages the batch's adjacency
//! ([`stage_adjacency`]): one part per region of the file, each on that
//! region's frame cache, so `update_phi` reads no frame itself.
//!
//! [`step`] and [`evaluate_perplexity`] time each stage as its phase.
//! The simulated cluster ([`crate::DistributedSampler`]) runs the very
//! same [`step`], asking it for a [`StepRecord`] (its batch and DKV
//! keys), and prices the record afterwards, so there is one chain.

use crate::sampler::engine::{Engine, PHI_CHUNK};
use crate::workspace::Workspace;
use crate::CoreError;
use mmsb_netsim::StepRecord;
use mmsb_obs::id as obs_id;
use mmsb_obs::{phase_span, Phase};
use mmsb_ooc::{GraphBackend, OocError};
use mmsb_pool::{tree_combine_f64, SharedSlice, ThreadPool};
use std::ops::Range;

/// Held-out pairs per perplexity chunk.
const PERPLEXITY_CHUNK: usize = 1024;

/// Driver-owned per-iteration buffers, allocated once and reused.
pub(crate) struct StepBuffers {
    /// Flat phi updates: one `K`-row per mini-batch vertex.
    updates: Vec<f64>,
    /// Per-chunk theta gradients (`2K` each), combined in place.
    chunk_grads: Vec<f64>,
    /// Per-pair held-out probabilities.
    probs: Vec<f64>,
    /// Per region of an out-of-core file: its batch vertices `lo..hi`,
    /// of which `lo..end` lie inside the region (`end < hi` when the last
    /// one's list runs on into a later region).
    spans: Vec<Span>,
    /// Per region: the read error its staging part hit, if any.
    stage_errors: Vec<Option<OocError>>,
    /// Per batch vertex: whether its list was cached when its region's
    /// staging began.
    held: Vec<bool>,
}

/// One region's share of the staged batch (see [`StepBuffers::spans`]).
#[derive(Clone, Copy)]
struct Span {
    lo: usize,
    end: usize,
    hi: usize,
}

impl StepBuffers {
    // xlint: allow(hot-path-alloc) — setup-time construction: buffers are allocated once per engine and reused by every step
    pub fn new(engine: &Engine) -> Self {
        let k = engine.config.k;
        Self {
            updates: vec![0.0; engine.max_batch_vertices() * k],
            chunk_grads: vec![0.0; engine.max_theta_chunks() * 2 * k],
            probs: vec![0.0; engine.heldout.len()],
            spans: Vec::with_capacity(engine.regions.regions()),
            stage_errors: Vec::with_capacity(engine.regions.regions()),
            held: vec![false; engine.max_batch_vertices()],
        }
    }
}

/// The first `len` elements of `buf`, grown to hold them first. Growing
/// is a no-op in the steady state — the buffers are pre-sized from
/// worst-case bounds — but keeps the drivers correct if `replace_graph`
/// raises those bounds.
// xlint: allow(hot-path-panic) — `buf` has just been grown to at least `len` elements
pub(crate) fn prefix<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
    &mut buf[..len]
}

/// Run `body(ctx, part, rows, out_rows)` for every part of `out` on
/// `pool`, with `ctxs` as the per-thread scratch: `out` holds `n =
/// out.len() / width` rows of `width > 0` elements, part `p` owns rows
/// `p * chunk..` up to `chunk` of them, and `out_rows` is exclusive
/// access to the part's `rows`. Every fan-out runs through here — `phi`
/// chunks, one theta row per chunk, held-out pair chunks — so each part
/// writes only its own rows however the pool schedules the parts.
fn fan_out<T, F>(
    pool: &ThreadPool,
    ctxs: &mut [Workspace],
    out: &mut [T],
    width: usize,
    chunk: usize,
    body: F,
) where
    T: Send,
    F: Fn(&mut Workspace, usize, Range<usize>, &mut [T]) + Sync,
{
    let n = out.len() / width;
    let out = SharedSlice::new(out);
    pool.run_with(ctxs, n.div_ceil(chunk), |ctx, part| {
        let lo = part.saturating_mul(chunk).min(n);
        let hi = lo.saturating_add(chunk).min(n);
        // SAFETY: parts own the disjoint row ranges `[p * chunk, (p + 1)
        // * chunk)` clipped to `n`, so no two live borrows overlap, and
        // `range` bounds-checks them against `out`.
        let rows = unsafe { out.range(lo * width, hi * width) };
        body(ctx, part, lo..hi, rows);
    });
}

/// Stage the lists of the drawn batch's vertices into
/// `engine.adjacency`, each decoded once. The batch is sorted, and
/// vertex order is file order, so each region's vertices are a run of
/// it: one part per region decodes its run through the region's own
/// cache, in two passes — first the lists whose frames the cache still
/// holds from earlier steps, before any load can evict them, then the
/// rest. Each pass runs up the run on even iterations and down it on
/// odd ones, so the frames one sweep ends on, still in the LRU, are the
/// ones the next begins with. A list that runs on into a later region is
/// decoded after the fan-out, each frame through its block's region's
/// cache, so no frame is cached twice. The first failed read, in region order,
/// is returned.
// xlint: allow(hot-path-panic) — `spans` holds one entry per region with `lo <= end <= hi <= mb_vertices.len()`, `offsets` one more entry than the batch has vertices, `held` at least one per batch vertex, and parts index only their own region's slots
fn stage_adjacency(
    engine: &mut Engine,
    pool: &ThreadPool,
    bufs: &mut StepBuffers,
) -> Result<(), OocError> {
    let Engine {
        graph,
        regions,
        adjacency,
        mb_vertices,
        iteration,
        ..
    } = engine;
    let GraphBackend::OutOfCore(file) = &*graph else {
        return Ok(());
    };
    let StepBuffers {
        spans,
        stage_errors: errors,
        held,
        ..
    } = bufs;
    let vs = &mb_vertices[..];
    adjacency.layout(vs.iter().map(|a| file.degree(a.0)));
    spans.clear();
    let mut lo = 0;
    for r in 0..regions.regions() {
        let hi = lo + vs[lo..].partition_point(|a| regions.region_of(file, a.0) <= r);
        let crosses = hi > lo && regions.crosses(file, vs[hi - 1].0);
        let end = if crosses { hi - 1 } else { hi };
        spans.push(Span { lo, end, hi });
        lo = hi;
    }
    errors.clear();
    errors.resize_with(spans.len(), || None);
    let descending = *iteration % 2 == 1;
    let (offsets, ids) = adjacency.parts();
    {
        let caches = SharedSlice::new(regions.caches_mut());
        let slots = SharedSlice::new(&mut errors[..]);
        let out = SharedSlice::new(&mut *ids);
        let held = SharedSlice::new(prefix(held, vs.len()));
        let spans = &spans[..];
        pool.run(spans.len(), |_, r| {
            let Span { lo, end, .. } = spans[r];
            let base = offsets[lo];
            // SAFETY: part `r` alone touches cache `r`, error slot `r`,
            // and the ids and flags of its region's vertices `lo..end` —
            // disjoint ranges, since the regions' runs of the batch are.
            let (cache, slot, ids, held) = unsafe {
                (
                    &mut caches.range(r, r + 1)[0],
                    &mut slots.range(r, r + 1)[0],
                    out.range(base, offsets[end]),
                    held.range(lo, end),
                )
            };
            let sweep = || (0..end - lo).map(|k| if descending { end - 1 - k } else { lo + k });
            for i in sweep() {
                held[i - lo] = cache.holds(file, vs[i].0);
            }
            let res = [true, false].into_iter().try_for_each(|cached| {
                sweep()
                    .filter(|&i| held[i - lo] == cached)
                    .try_for_each(|i| {
                        let list = &mut ids[offsets[i] - base..offsets[i + 1] - base];
                        cache.decode_into(file, vs[i].0, list)
                    })
            });
            if let Err(e) = res {
                *slot = Some(e);
            }
        });
    }
    if let Some(e) = errors.iter_mut().find_map(Option::take) {
        return Err(e);
    }
    for span in spans.iter().filter(|s| s.end < s.hi) {
        let i = span.end;
        let list = &mut ids[offsets[i]..offsets[i + 1]];
        regions.decode_routed(file, vs[i].0, list)?;
    }
    Ok(())
}

/// One SG-MCMC iteration (Algorithm 1), chunked and each stage timed as
/// its phase: the master draws the mini-batch (master RNG); on an
/// out-of-core graph the batch's adjacency is staged
/// ([`stage_adjacency`]); every batch vertex's new `phi` row is computed
/// per [`PHI_CHUNK`] into the update buffer and, given a `record`, the
/// batch and its DKV keys into it; the barrier, and every update is
/// applied; per-chunk theta gradients (`THETA_CHUNK` pairs each) against
/// the fresh `pi`, combined by a fixed binary tree, then the theta SGRLD
/// step (theta RNG). The chunks, not the pool, fix the summation order.
/// A failed out-of-core read ends the step before any state changes,
/// with the error.
// xlint: allow(hot-path-panic) — fan_out hands each chunk a row range within the `mb_vertices.len()` rows of the update buffer and the record, and `grads` holds `n_chunks >= 1` rows of `k2`
pub(crate) fn step(
    engine: &mut Engine,
    pool: &ThreadPool,
    scratch: &mut [Workspace],
    bufs: &mut StepBuffers,
    record: Option<&mut StepRecord>,
) -> Result<(), CoreError> {
    let _step_span = mmsb_obs::timed_span(obs_id::S_STEP, obs_id::H_STEP_NS);
    {
        let _p = phase_span(Phase::DrawMinibatch);
        engine.refresh_minibatch()?;
    }
    if matches!(engine.graph, GraphBackend::OutOfCore(_)) {
        let _p = phase_span(Phase::DeployMinibatch);
        stage_adjacency(engine, pool, bufs)?;
    }
    let (nv, k) = (engine.mb_vertices.len(), engine.config.k);
    {
        let _p = phase_span(Phase::UpdatePhi);
        let eng = &*engine;
        let record = record.map(|r| {
            let vertices = eng.mb_vertices.iter().map(|a| a.0);
            let pairs = eng.mb.pairs.iter().map(|&(e, _)| [e.lo().0, e.hi().0]);
            let (stride, slots) = r.begin(eng.iteration, vertices, pairs);
            (stride, SharedSlice::new(slots))
        });
        let updates = prefix(&mut bufs.updates, nv * k);
        fan_out(pool, scratch, updates, k, PHI_CHUNK, |ws, _, vs, rows| {
            eng.update_phi(vs.clone(), ws, rows);
            if let Some((stride, slots)) = &record {
                // SAFETY: as in `fan_out` — a chunk's vertices own their
                // disjoint `stride`-slot range of the record.
                let slots = unsafe { slots.range(vs.start * stride, vs.end * stride) };
                ws.sampled.record_keys(slots, *stride);
            }
        });
    }
    {
        let _p = phase_span(Phase::UpdatePi);
        engine.apply_phi_updates(prefix(&mut bufs.updates, nv * k));
    }
    {
        let _p = phase_span(Phase::UpdateBetaTheta);
        let k2 = 2 * k;
        let n_chunks = engine.theta_chunk_count();
        let grads = prefix(&mut bufs.chunk_grads, n_chunks * k2);
        let eng = &*engine;
        fan_out(pool, scratch, grads, k2, 1, |ws, chunk, _, grad| {
            eng.theta_gradient(chunk, &mut ws.stage, grad)
        });
        tree_combine_f64(grads, k2, n_chunks);
        engine.apply_theta_update(&grads[..k2]);
    }
    engine.bump_iteration();
    mmsb_obs::counter_add(obs_id::C_SAMPLER_STEPS, 1);
    Ok(())
}

/// Evaluate held-out perplexity, timed as its phase: each
/// [`PERPLEXITY_CHUNK`] fills its disjoint slice of one flat probability
/// buffer (no per-chunk vectors), then the sample is recorded in pair
/// order.
pub(crate) fn evaluate_perplexity(
    engine: &mut Engine,
    pool: &ThreadPool,
    scratch: &mut [Workspace],
    bufs: &mut StepBuffers,
) -> f64 {
    let _p = phase_span(Phase::Perplexity);
    let probs = prefix(&mut bufs.probs, engine.heldout.len());
    let eng = &*engine;
    fan_out(pool, scratch, probs, 1, PERPLEXITY_CHUNK, |_, _, ps, p| {
        eng.perplexity_probs_into(ps.start, ps.end, p);
    });
    engine.record_perplexity_sample(probs)
}
