//! Shared iteration machinery.

use crate::config::SamplerConfig;
use crate::kernels::phi::{update_phi_row, PhiParams};
use crate::kernels::theta::{theta_gradient_pair, update_theta};
use crate::perplexity::{link_probability, PerplexityAccumulator};
use crate::rngs;
use crate::state::ModelState;
use crate::workspace::Workspace;
use crate::CoreError;
use mmsb_graph::access::mark_links;
use mmsb_graph::minibatch::{BatchKind, MiniBatch, MinibatchSampler, Strategy};
use mmsb_graph::heldout::HeldOut;
use mmsb_graph::neighbor::NeighborSampler;
use mmsb_graph::{Graph, GraphAccess, VertexId};
use mmsb_ooc::{BlockCache, GraphBackend};
use mmsb_rand::dist::Normal;
use mmsb_rand::Xoshiro256PlusPlus;
use mmsb_simd::Backend;

/// Pairs per theta-gradient chunk. One chunk accumulates its pairs
/// serially (matching the historical serial sum for batches that fit in a
/// single chunk); chunks are combined by a fixed binary tree.
pub(crate) const THETA_CHUNK: usize = 1024;

/// Mini-batch vertices per phi-update chunk.
pub(crate) const PHI_CHUNK: usize = 8;

/// Shared sampler state and per-stage operations.
///
/// Drivers compose these operations; none of them consults thread or rank
/// identity, which is what keeps chains identical across drivers.
pub(crate) struct Engine {
    pub graph: GraphBackend,
    /// The master's block cache for out-of-core adjacency reads (`None`
    /// for resident backends). Mini-batch drawing and the threaded
    /// master's neighbor scatter read through it.
    pub master_cache: Option<BlockCache>,
    pub heldout: HeldOut,
    pub config: SamplerConfig,
    pub state: ModelState,
    pub master_rng: Xoshiro256PlusPlus,
    pub theta_rng: Xoshiro256PlusPlus,
    pub minibatch: MinibatchSampler,
    pub neighbors: NeighborSampler,
    pub perplexity: PerplexityAccumulator,
    /// Kernel backend resolved from [`SamplerConfig::simd`] at
    /// construction. `Scalar` routes through the legacy kernels
    /// (bitwise-identical to pre-SIMD chains); everything else runs the
    /// `mmsb-simd` kernels under their per-backend numeric contract.
    pub backend: Backend,
    /// Scratch for the SIMD perplexity log (2 x held-out pairs).
    perp_scratch: Vec<f64>,
    pub iteration: u64,
    /// Current mini-batch, reused across iterations by
    /// [`Engine::refresh_minibatch`] so the steady state never allocates.
    pub mb: MiniBatch,
    /// Distinct vertices of `mb`, kept alongside it.
    pub mb_vertices: Vec<VertexId>,
}

/// One vertex's pending `phi` update.
pub(crate) type PhiUpdate = (VertexId, Vec<f64>);

impl Engine {
    pub fn new(graph: Graph, heldout: HeldOut, config: SamplerConfig) -> Result<Self, CoreError> {
        Self::with_backend(GraphBackend::Resident(graph), heldout, config)
    }

    /// Build an engine over either graph backend. The chain is bitwise
    /// identical across backends: adjacency reads return the same values
    /// whether they come from the resident CSR or CRC-verified disk
    /// blocks, and every random draw is keyed independently of the read
    /// path.
    pub fn with_backend(
        graph: GraphBackend,
        heldout: HeldOut,
        config: SamplerConfig,
    ) -> Result<Self, CoreError> {
        config.validate(graph.num_vertices())?;
        let mut init = rngs::init_rng(config.seed);
        let state = ModelState::init(
            graph.num_vertices(),
            config.k,
            config.layout,
            config.alpha,
            config.eta,
            &mut init,
        )?;
        let max_pairs = max_batch_pairs(graph.num_vertices(), graph.max_degree(), config.minibatch);
        let master_cache = graph.new_cache(config.graph_cache_blocks, config.seed);
        let strata_cap = match config.minibatch {
            Strategy::StratifiedNode { anchors, .. } => anchors,
            Strategy::RandomPair { .. } => 0,
        };
        let mb = MiniBatch {
            pairs: Vec::with_capacity(max_pairs),
            weights: Vec::with_capacity(max_pairs),
            kind: BatchKind::Strata(Vec::with_capacity(strata_cap)),
        };
        // Sized for the pre-dedup extend in `vertices_into` (2 entries per
        // pair), not the post-dedup bound `max_batch_vertices` returns.
        let mb_vertices = Vec::with_capacity(2 * max_pairs);
        Ok(Self {
            master_rng: rngs::master_rng(config.seed),
            theta_rng: rngs::theta_rng(config.seed),
            minibatch: MinibatchSampler::new(config.minibatch),
            neighbors: NeighborSampler::new(graph.num_vertices(), config.neighbor_sample),
            perplexity: PerplexityAccumulator::new(heldout.len()),
            backend: config.backend(),
            perp_scratch: vec![0.0; 2 * heldout.len()],
            graph,
            master_cache,
            heldout,
            config,
            state,
            iteration: 0,
            mb,
            mb_vertices,
        })
    }

    /// Hard upper bound on the number of vertices any mini-batch can touch
    /// — sizes the drivers' flat update buffer once, up front.
    pub fn max_batch_vertices(&self) -> usize {
        let pairs = max_batch_pairs(
            self.graph.num_vertices(),
            self.graph.max_degree(),
            self.config.minibatch,
        );
        (2 * pairs).min(self.graph.num_vertices() as usize)
    }

    /// Hard upper bound on theta chunks per iteration.
    pub fn max_theta_chunks(&self) -> usize {
        max_batch_pairs(
            self.graph.num_vertices(),
            self.graph.max_degree(),
            self.config.minibatch,
        )
        .div_ceil(THETA_CHUNK)
        .max(1)
    }

    /// Swap in a new training snapshot (same vertex set, evolved edges)
    /// and its held-out set, keeping the learned state — the streaming
    /// setting the paper's introduction motivates (SG-MCMC only ever
    /// touches mini-batches, so the data source may change under it).
    /// The perplexity average restarts because the held-out set changed.
    pub fn replace_graph(&mut self, graph: Graph, heldout: HeldOut) -> Result<(), CoreError> {
        if graph.num_vertices() != self.graph.num_vertices() {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "snapshot has {} vertices, expected {}",
                    graph.num_vertices(),
                    self.graph.num_vertices()
                ),
            });
        }
        self.config.validate(graph.num_vertices())?;
        self.perplexity = PerplexityAccumulator::new(heldout.len());
        self.perp_scratch = vec![0.0; 2 * heldout.len()];
        self.graph = GraphBackend::Resident(graph);
        self.master_cache = None;
        self.heldout = heldout;
        Ok(())
    }

    /// Stage 1: the master draws a mini-batch (consumes master RNG).
    pub fn draw_minibatch(&mut self) -> MiniBatch {
        let reader = self.graph.reader(self.master_cache.as_mut());
        self.minibatch
            .sample(reader, Some(&self.heldout), &mut self.master_rng)
    }

    /// Stage 1, allocation-free variant: draw the next mini-batch into the
    /// engine's reusable [`Engine::mb`]/[`Engine::mb_vertices`] buffers.
    /// Consumes the master RNG exactly like [`Engine::draw_minibatch`].
    pub fn refresh_minibatch(&mut self) {
        let reader = self.graph.reader(self.master_cache.as_mut());
        self.minibatch.sample_into(
            reader,
            Some(&self.heldout),
            &mut self.master_rng,
            &mut self.mb,
        );
        self.mb.vertices_into(&mut self.mb_vertices);
    }

    /// The neighbor list of `v`, read through the master's cache — the
    /// threaded master scatters adjacency to workers with this.
    pub fn neighbors_master(&mut self, v: VertexId) -> &[u32] {
        self.graph.reader(self.master_cache.as_mut()).into_neighbors(v)
    }

    /// The step size for the current iteration.
    pub fn eps(&self) -> f64 {
        self.config.step.at(self.iteration)
    }

    /// Stage 2 (per mini-batch vertex, pure): sample the neighbor set and
    /// compute the vertex's `phi` update against the *current* state,
    /// writing the new row into `out` (length `K`). All scratch comes from
    /// `ws`, so the steady state performs no heap allocation.
    ///
    /// All randomness comes from the `(seed, iteration, vertex)` stream —
    /// the result is independent of which thread (and which workspace)
    /// performs the computation.
    pub fn compute_phi_update_into(&self, a: VertexId, ws: &mut Workspace, out: &mut [f64]) {
        let k = self.config.k;
        let mut rng = rngs::vertex_rng(self.config.seed, self.iteration, a.0);
        self.neighbors.sample_into(
            a,
            Some(&self.heldout),
            &mut rng,
            &mut ws.neighbors,
            &mut ws.seen,
        );

        // Gather neighbor pi rows, then the observations: `a`'s list is
        // read once and answers every edge test. The reader borrows only
        // `ws.graph_cache`, disjoint from `ws.neighbors` / `ws.linked`.
        let nn = ws.neighbors.len();
        ws.rows.clear();
        ws.rows.resize(nn * k, 0.0);
        for (i, &b) in ws.neighbors.iter().enumerate() {
            ws.rows[i * k..(i + 1) * k].copy_from_slice(self.state.pi_row(b.0));
        }
        let mut reader = self.graph.reader(ws.graph_cache.as_mut());
        mark_links(reader.neighbors(a), &ws.neighbors, &mut ws.linked);

        self.state.phi_row(a.0, &mut ws.phi_a);
        let params = PhiParams {
            alpha: self.config.alpha,
            delta: self.config.delta,
            eps: self.eps(),
            grad_scale: self.graph.num_vertices() as f64 / nn.max(1) as f64,
        };
        if self.backend == Backend::Scalar {
            update_phi_row(
                &ws.phi_a,
                self.state.beta(),
                &crate::kernels::RowView::new(&ws.rows, k),
                &ws.linked,
                &params,
                &mut rng,
                &mut ws.f,
                out,
            );
        } else {
            // SIMD path: same gradient-then-noise order as the scalar
            // kernel — the K accepted polar pairs are drawn in
            // coordinate order, so the per-vertex RNG stream is
            // consumed identically; the transcendental finish then runs
            // vectorized over the whole batch.
            mmsb_simd::phi_gradient(
                self.backend,
                &ws.phi_a,
                self.state.beta(),
                &ws.rows,
                k,
                &ws.linked,
                params.delta,
                &mut ws.phi_scratch,
                out,
            );
            ws.noise_u.clear();
            ws.noise_s.clear();
            for _ in 0..k {
                let (u, s) = Normal::standard_accept(&mut rng);
                ws.noise_u.push(u);
                ws.noise_s.push(s);
            }
            ws.noise.clear();
            ws.noise.resize(k, 0.0);
            mmsb_simd::polar_normal(self.backend, &ws.noise_u, &ws.noise_s, &mut ws.noise);
            mmsb_simd::sgrld_step(
                self.backend,
                &ws.phi_a,
                &ws.noise,
                params.alpha,
                0.5 * params.eps,
                params.grad_scale,
                params.eps.sqrt(),
                crate::state::PHI_MIN,
                out,
            );
        }
    }

    /// Distributed variant of [`Engine::compute_phi_update`]: the vertex's
    /// own DKV row and its neighbors' rows were already loaded from the
    /// store (stride `k + 1`: `pi ++ sum(phi)`), and the neighbor set was
    /// sampled earlier from `rng` (which must be passed back in so the
    /// noise draws continue the same per-vertex stream).
    ///
    /// Produces bit-identical results to the local variant because the
    /// store rows are the same f32 values held in [`ModelState`].
    pub fn compute_phi_update_from_rows(
        &self,
        a: VertexId,
        own_row: &[f32],
        neighbor_rows: &crate::kernels::RowView<'_>,
        linked: &[bool],
        rng: &mut Xoshiro256PlusPlus,
    ) -> PhiUpdate {
        phi_update_from_dkv_rows(
            &WorkerParams {
                k: self.config.k,
                n: self.graph.num_vertices(),
                alpha: self.config.alpha,
                delta: self.config.delta,
                eps: self.eps(),
                backend: self.backend,
            },
            self.state.beta(),
            a,
            own_row,
            neighbor_rows,
            linked,
            rng,
        )
    }

    /// Stage 3: apply all `phi` updates (the `update_pi` barrier stage).
    pub fn apply_phi_updates(&mut self, updates: &[PhiUpdate]) {
        for (a, phi) in updates {
            self.state.set_phi_row(a.0, phi);
        }
    }

    /// Stage 3, allocation-free variant: `updates` holds one `K`-row per
    /// entry of [`Engine::mb_vertices`], in order.
    pub fn apply_phi_updates_flat(&mut self, updates: &[f64]) {
        let k = self.config.k;
        assert_eq!(
            updates.len(),
            self.mb_vertices.len() * k,
            "flat update buffer must hold one row per mini-batch vertex"
        );
        for (i, &a) in self.mb_vertices.iter().enumerate() {
            self.state.set_phi_row(a.0, &updates[i * k..(i + 1) * k]);
        }
    }

    /// Number of theta-gradient chunks the current mini-batch splits into
    /// (at least one, so an empty batch still drives the theta noise).
    pub fn theta_chunk_count(&self) -> usize {
        self.mb.pairs.len().div_ceil(THETA_CHUNK).max(1)
    }

    /// Accumulate chunk `chunk` of the current mini-batch's weighted theta
    /// gradient into `out` (length `2K`, overwritten). Pairs within a
    /// chunk are accumulated serially in batch order; chunk boundaries are
    /// fixed multiples of `THETA_CHUNK`, so the result depends only on the
    /// batch, never on thread count.
    pub fn theta_gradient_chunk(&self, chunk: usize, ws: &mut Workspace, out: &mut [f64]) {
        let lo = chunk * THETA_CHUNK;
        let hi = ((chunk + 1) * THETA_CHUNK).min(self.mb.pairs.len());
        let pairs = self.mb.pairs[lo..hi].iter().zip(&self.mb.weights[lo..hi]);
        if self.backend == Backend::Scalar {
            out.fill(0.0);
            for (&(e, y), &w) in pairs {
                theta_gradient_pair(
                    self.state.pi_row(e.lo().0),
                    self.state.pi_row(e.hi().0),
                    y,
                    w,
                    self.state.beta(),
                    self.state.theta(),
                    self.config.delta,
                    &mut ws.grad,
                    out,
                );
            }
        } else {
            mmsb_simd::theta_chunk_begin(
                self.state.beta(),
                self.state.theta(),
                self.config.delta,
                &mut ws.theta_scratch,
            );
            for (&(e, y), &w) in pairs {
                mmsb_simd::theta_accumulate_pair(
                    self.backend,
                    &mut ws.theta_scratch,
                    self.state.pi_row(e.lo().0),
                    self.state.pi_row(e.hi().0),
                    y,
                    w,
                );
            }
            mmsb_simd::theta_chunk_finish(&ws.theta_scratch, out);
        }
    }

    /// Compute the weighted `theta` gradient contribution of a slice of
    /// mini-batch pairs against the current (fresh) `pi`. Pure; used by
    /// workers. `weights` must align with `pairs`.
    pub fn theta_gradient_slice(
        &self,
        pairs: &[(mmsb_graph::Edge, bool)],
        weights: &[f64],
    ) -> Vec<f64> {
        assert_eq!(pairs.len(), weights.len(), "weights must align with pairs");
        let mut grad = vec![0.0f64; 2 * self.config.k];
        if self.backend == Backend::Scalar {
            let mut f_diag = vec![0.0f64; self.config.k];
            for (&(e, y), &w) in pairs.iter().zip(weights) {
                theta_gradient_pair(
                    self.state.pi_row(e.lo().0),
                    self.state.pi_row(e.hi().0),
                    y,
                    w,
                    self.state.beta(),
                    self.state.theta(),
                    self.config.delta,
                    &mut f_diag,
                    &mut grad,
                );
            }
        } else {
            let mut scratch = mmsb_simd::ThetaScratch::new(self.config.k);
            mmsb_simd::theta_chunk_begin(
                self.state.beta(),
                self.state.theta(),
                self.config.delta,
                &mut scratch,
            );
            for (&(e, y), &w) in pairs.iter().zip(weights) {
                mmsb_simd::theta_accumulate_pair(
                    self.backend,
                    &mut scratch,
                    self.state.pi_row(e.lo().0),
                    self.state.pi_row(e.hi().0),
                    y,
                    w,
                );
            }
            mmsb_simd::theta_chunk_finish(&scratch, &mut grad);
        }
        grad
    }

    /// Stage 4 (master): apply the `theta` SGRLD step from an accumulated
    /// *weighted* gradient (the per-pair mini-batch weights already encode
    /// `h(E_n)`; consumes the dedicated theta-noise RNG stream) and
    /// refresh `beta`.
    pub fn apply_theta_update(&mut self, grad: &[f64]) {
        let eps = self.eps();
        update_theta(
            self.state.theta_mut(),
            grad,
            1.0,
            self.config.eta,
            eps,
            &mut self.theta_rng,
        );
        self.state.recompute_beta();
    }

    /// Per-pair probabilities for a contiguous held-out range (pure).
    pub fn perplexity_probs(&self, lo: usize, hi: usize) -> Vec<f64> {
        let mut out = vec![0.0f64; hi - lo];
        self.perplexity_probs_into(lo, hi, &mut out);
        out
    }

    /// Allocation-free variant of [`Engine::perplexity_probs`]: fill `out`
    /// (length `hi - lo`) with the per-pair probabilities of the held-out
    /// range `[lo, hi)`.
    pub fn perplexity_probs_into(&self, lo: usize, hi: usize, out: &mut [f64]) {
        assert_eq!(out.len(), hi - lo, "output must match the held-out range");
        for (slot, &(e, y)) in out.iter_mut().zip(&self.heldout.pairs()[lo..hi]) {
            *slot = link_probability(
                self.state.pi_row(e.lo().0),
                self.state.pi_row(e.hi().0),
                self.state.beta(),
                self.config.delta,
                y,
            );
        }
    }

    /// Record one posterior sample into the running perplexity average and
    /// return the current averaged perplexity.
    pub fn record_perplexity_sample(&mut self, probs: &[f64]) -> f64 {
        self.perplexity.record(probs);
        self.perplexity
            .value_with(self.backend, &mut self.perp_scratch)
            .expect("record() guarantees at least one sample")
    }

    /// Advance the iteration counter.
    pub fn bump_iteration(&mut self) {
        self.iteration += 1;
    }
}

/// Per-iteration scalar parameters a worker needs for its `phi` updates.
pub(crate) struct WorkerParams {
    pub k: usize,
    pub n: u32,
    pub alpha: f64,
    pub delta: f64,
    pub eps: f64,
    pub backend: Backend,
}

/// Worker-side `phi` update from DKV rows — shared by the lockstep and
/// threaded distributed drivers so their numerics are identical by
/// construction.
pub(crate) fn phi_update_from_dkv_rows(
    params: &WorkerParams,
    beta: &[f64],
    a: VertexId,
    own_row: &[f32],
    neighbor_rows: &crate::kernels::RowView<'_>,
    linked: &[bool],
    rng: &mut Xoshiro256PlusPlus,
) -> PhiUpdate {
    let k = params.k;
    assert_eq!(own_row.len(), k + 1, "own DKV row must be K + 1 floats");
    let sum = own_row[k] as f64;
    let phi_a: Vec<f64> = own_row[..k]
        .iter()
        .map(|&p| (p as f64 * sum).max(crate::state::PHI_MIN))
        .collect();
    let kernel_params = PhiParams {
        alpha: params.alpha,
        delta: params.delta,
        eps: params.eps,
        grad_scale: params.n as f64 / linked.len().max(1) as f64,
    };
    let mut out = vec![0.0f64; k];
    if params.backend == Backend::Scalar {
        let mut f = vec![0.0f64; 2 * k];
        update_phi_row(
            &phi_a,
            beta,
            neighbor_rows,
            linked,
            &kernel_params,
            rng,
            &mut f,
            &mut out,
        );
    } else {
        // The strided SIMD kernel reads K floats per DKV row directly
        // (stride `k + 1`), so the numbers — and the coordinate-order
        // noise draws — match the local in-memory variant exactly.
        let mut scratch = mmsb_simd::PhiScratch::new(k);
        mmsb_simd::phi_gradient(
            params.backend,
            &phi_a,
            beta,
            neighbor_rows.flat(),
            neighbor_rows.stride(),
            linked,
            kernel_params.delta,
            &mut scratch,
            &mut out,
        );
        let mut noise_u = Vec::with_capacity(k);
        let mut noise_s = Vec::with_capacity(k);
        for _ in 0..k {
            let (u, s) = Normal::standard_accept(rng);
            noise_u.push(u);
            noise_s.push(s);
        }
        let mut noise = vec![0.0; k];
        mmsb_simd::polar_normal(params.backend, &noise_u, &noise_s, &mut noise);
        mmsb_simd::sgrld_step(
            params.backend,
            &phi_a,
            &noise,
            kernel_params.alpha,
            0.5 * kernel_params.eps,
            kernel_params.grad_scale,
            kernel_params.eps.sqrt(),
            crate::state::PHI_MIN,
            &mut out,
        );
    }
    (a, out)
}

/// Worst-case pair count of one mini-batch under `strategy` on a graph
/// with `num_vertices` vertices and maximum degree `max_degree`: the
/// stratified batch is bounded by `anchors` strata, each at most
/// `max(max_degree, ceil(N / partitions))` pairs; a random-pair batch by
/// its configured size. Used to pre-reserve every per-iteration buffer.
pub(crate) fn max_batch_pairs(num_vertices: u32, max_degree: u32, strategy: Strategy) -> usize {
    match strategy {
        Strategy::RandomPair { size } => size,
        Strategy::StratifiedNode {
            partitions,
            anchors,
        } => {
            let n = num_vertices as usize;
            let stratum = (max_degree as usize).max(n.div_ceil(partitions));
            anchors * stratum
        }
    }
}
