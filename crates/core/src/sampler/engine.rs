//! Shared iteration machinery.

use super::stage::{self, PhiParams, StageScratch};
use crate::config::SamplerConfig;
use crate::perplexity::{link_probability, PerplexityAccumulator};
use crate::rngs;
use crate::state::{ModelState, PHI_MIN};
use crate::workspace::Workspace;
use crate::CoreError;
use mmsb_graph::access::mark_links;
use mmsb_graph::minibatch::{BatchKind, MiniBatch, MinibatchSampler, Strategy};
use mmsb_graph::heldout::HeldOut;
use mmsb_graph::neighbor::NeighborSampler;
use mmsb_graph::{Graph, GraphAccess, VertexId};
use mmsb_ooc::{BlockCache, GraphBackend};
use mmsb_rand::dist::Normal;
use mmsb_rand::{RngCore, Xoshiro256PlusPlus};
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
    /// construction; every stage runs the `mmsb-simd` kernels on it
    /// under their per-backend numeric contract.
    pub backend: Backend,
    /// Scratch for the vectorized perplexity log (2 x held-out pairs).
    perp_scratch: Vec<f64>,
    pub iteration: u64,
    /// Current mini-batch, reused across iterations by
    /// [`Engine::refresh_minibatch`] so the steady state never allocates.
    pub mb: MiniBatch,
    /// Distinct vertices of `mb`, kept alongside it.
    pub mb_vertices: Vec<VertexId>,
}

impl Engine {
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

    /// Stage 1: the master draws the next mini-batch (consumes the master
    /// RNG) into the engine's reusable [`Engine::mb`] /
    /// [`Engine::mb_vertices`] buffers.
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

    /// The `phi`-stage scalars of the current iteration.
    pub fn phi_params(&self) -> PhiParams {
        PhiParams {
            backend: self.backend,
            n: self.graph.num_vertices(),
            alpha: self.config.alpha,
            delta: self.config.delta,
            eps: self.eps(),
        }
    }

    /// Stage 2 against the resident state (per mini-batch vertex, pure):
    /// sample the neighbor set, gather its `pi` rows and run
    /// [`stage::phi_update`] against the *current* state, writing the new
    /// row into `out` (length `K`). All scratch comes from `ws`, so the
    /// steady state performs no heap allocation.
    ///
    /// All randomness comes from the `(seed, iteration, vertex)` stream —
    /// the result is independent of which thread (and which workspace)
    /// performs the computation.
    pub fn update_phi_local(&self, a: VertexId, ws: &mut Workspace, out: &mut [f64]) {
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
        stage::phi_update(
            &self.phi_params(),
            self.state.beta(),
            &ws.phi_a,
            &ws.rows,
            k,
            &ws.linked,
            &mut rng,
            &mut ws.stage,
            out,
        );
    }

    /// Stage 3: apply all `phi` updates (the `update_pi` barrier stage).
    /// `updates` holds one `K`-row per entry of [`Engine::mb_vertices`],
    /// in order.
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

    /// Accumulate the weighted theta gradient of the current mini-batch's
    /// pairs `[lo, hi)` against the current (fresh) `pi` into `out`
    /// (length `2K`, overwritten). Pairs are accumulated serially in batch
    /// order, so the result depends only on the batch and the range —
    /// the pool driver passes fixed `THETA_CHUNK` ranges, the distributed
    /// driver each rank's pair share.
    pub fn theta_gradient(&self, lo: usize, hi: usize, scratch: &mut StageScratch, out: &mut [f64]) {
        let state = &self.state;
        let pairs = self.mb.pairs[lo..hi]
            .iter()
            .zip(&self.mb.weights[lo..hi])
            .map(|(&(e, y), &w)| (state.pi_row(e.lo().0), state.pi_row(e.hi().0), y, w));
        stage::theta_gradient(
            self.backend,
            state.beta(),
            state.theta(),
            self.config.delta,
            pairs,
            scratch,
            out,
        );
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
            self.config.eta,
            eps,
            &mut self.theta_rng,
        );
        self.state.recompute_beta();
    }

    /// Fill `out` (length `hi - lo`) with the per-pair probabilities of
    /// the held-out range `[lo, hi)` (pure).
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

/// One full SGRLD step (Eq. 3) on `theta` given the accumulated weighted
/// mini-batch gradient. Updates `theta` in place; the caller recomputes
/// `beta` afterwards. `theta` is `K x 2` and tiny, so this runs plain
/// scalar arithmetic on every backend.
pub(crate) fn update_theta<R: RngCore>(
    theta: &mut [f64],
    grad: &[f64],
    eta: (f64, f64),
    eps: f64,
    rng: &mut R,
) {
    assert_eq!(theta.len(), grad.len(), "gradient/theta length mismatch");
    assert_eq!(theta.len() % 2, 0, "theta must be K x 2");
    let half_eps = 0.5 * eps;
    let noise_scale = eps.sqrt();
    for (j, t) in theta.iter_mut().enumerate() {
        let prior = if j % 2 == 0 { eta.0 } else { eta.1 };
        let drift = half_eps * (prior - *t + grad[j]);
        let noise = t.sqrt() * noise_scale * Normal::standard_sample(rng);
        let next = (*t + drift + noise).abs();
        debug_assert!(next.is_finite(), "theta update produced {next}");
        *t = next.max(PHI_MIN);
    }
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
