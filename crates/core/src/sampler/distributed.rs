//! The distributed master–worker driver (paper §III), in lockstep
//! simulation.
//!
//! One master plus `R` workers. The mini-batch and its adjacency rows are
//! scattered by the master; `pi` lives in an `mmsb-dkv` sharded store
//! partitioned over the workers; `theta`/`beta` live at the master and
//! `beta` is broadcast each iteration.
//!
//! **Execution model** (DESIGN.md §3/§6): every rank's compute runs for
//! real, single-threaded, one rank at a time — so measurements are free of
//! host contention — and is then scaled by the configured
//! [`NodeComputeModel`] (the per-node OpenMP layer). Every communication
//! and DKV operation advances the owning rank's [`ClusterClocks`] entry by
//! an `mmsb-netsim` cost; barriers synchronize clocks to the max. The
//! virtual makespan is what Figures 1–4 plot.
//!
//! **Chain fidelity**: the numerical trajectory is identical to the
//! sequential and parallel drivers up to the floating-point association
//! order of the distributed `theta`-gradient reduction (each worker sums
//! its pair share, then shares are summed in rank order).

use super::worker::{share, PhiWorker};
use super::Engine;
use crate::checkpoint::Checkpoint;
use crate::communities::Communities;
use crate::compute_model::NodeComputeModel;
use crate::config::{SamplerConfig, StateLayout};
use crate::{CoreError, ModelState};
use mmsb_dkv::pipeline::{ChunkReader, PipelineMode, ReaderScratch};
use mmsb_dkv::{DkvStore, FaultingStore, Partition, ShardedStore};
use mmsb_graph::access::mark_links;
use mmsb_graph::heldout::HeldOut;
use mmsb_graph::{Graph, GraphAccess};
use mmsb_netsim::{
    collective, ClusterClocks, DkvFault, FaultConfig, FaultPlan, MsgFault, NetworkModel, Phase,
    PhaseTimes, RecoveryPolicy, TraceReport,
};
use mmsb_netsim::obs_bridge;
use mmsb_obs::clock::Stopwatch;
use mmsb_obs::id as obs_id;

/// Cluster-level configuration of the distributed sampler.
#[derive(Debug, Clone, Copy)]
pub struct DistributedConfig {
    /// Number of worker ranks `R` (the paper uses up to 64, plus the
    /// master).
    pub workers: usize,
    /// Network cost model.
    pub net: NetworkModel,
    /// Per-node thread-parallelism model applied to measured compute.
    pub node: NodeComputeModel,
    /// Single- or double-buffered `pi` loads (Figure 3 / Table III).
    pub pipeline: PipelineMode,
    /// Mini-batch vertices per load/compute chunk.
    pub chunk_vertices: usize,
    /// Seeded fault schedule, or `None` for a fault-free cluster.
    ///
    /// Transient faults (failed/slow DKV operations, lost/duplicated/
    /// delayed messages, stragglers) change only the *modeled time*: every
    /// retry re-executes to the same bytes, so the chain stays
    /// bitwise-identical to the fault-free run. A `kill_worker` entry is
    /// permanent: the sampler rewinds to its last checkpoint and continues
    /// on `R - 1` workers.
    pub faults: Option<FaultConfig>,
}

impl DistributedConfig {
    /// A DAS5-like configuration: FDR InfiniBand, 16-core nodes,
    /// double-buffered loads, 16-vertex chunks.
    pub fn das5(workers: usize) -> Self {
        Self {
            workers,
            net: NetworkModel::fdr_infiniband(),
            node: NodeComputeModel::das5_node(),
            pipeline: PipelineMode::Double,
            chunk_vertices: 16,
            faults: None,
        }
    }

    /// Inject the given fault schedule.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Toggle pipelining.
    pub fn with_pipeline(mut self, mode: PipelineMode) -> Self {
        self.pipeline = mode;
        self
    }

    /// Override the network model.
    pub fn with_net(mut self, net: NetworkModel) -> Self {
        self.net = net;
        self
    }

    /// Override the node compute model.
    pub fn with_node(mut self, node: NodeComputeModel) -> Self {
        self.node = node;
        self
    }

    fn validate(&self) -> Result<(), CoreError> {
        if self.workers == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "distributed sampler needs at least one worker".into(),
            });
        }
        if self.chunk_vertices == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "chunk_vertices must be positive".into(),
            });
        }
        if let Some(f) = &self.faults {
            if let Some((_, rank)) = f.kill_worker {
                if rank >= self.workers {
                    return Err(CoreError::InvalidConfig {
                        reason: format!(
                            "kill_worker rank {rank} out of range for {} workers",
                            self.workers
                        ),
                    });
                }
                if self.workers < 2 {
                    return Err(CoreError::InvalidConfig {
                        reason: "cannot lose the only worker".into(),
                    });
                }
            }
        }
        Ok(())
    }
}

/// The distributed SG-MCMC sampler over a simulated cluster.
pub struct DistributedSampler {
    engine: Engine,
    dcfg: DistributedConfig,
    /// The sharded `pi` store behind the fault-injection layer. With no
    /// faults configured the layer passes every operation straight
    /// through at zero cost.
    store: FaultingStore,
    /// The fault schedule (a no-op plan when `dcfg.faults` is `None`).
    plan: FaultPlan,
    policy: RecoveryPolicy,
    /// Set once a permanent worker loss has been absorbed (at most one
    /// kill per schedule).
    lost_worker: Option<usize>,
    /// The most recent chain snapshot; the rollback point for permanent
    /// worker loss. Captured at construction when faults are configured,
    /// and refreshed per [`DistributedSampler::with_checkpoint_every`].
    last_checkpoint: Option<Checkpoint>,
    /// Refresh `last_checkpoint` every this many iterations.
    checkpoint_every: Option<u64>,
    /// Index 0 is the master; worker `w` is rank `w + 1`.
    clocks: ClusterClocks,
    trace: PhaseTimes,
    /// Reader buffers (ping-pong row buffers, per-chunk timings) —
    /// persistent so the steady state allocates nothing.
    scratch: ReaderScratch,
    /// The `pi` loader in the configured [`PipelineMode`]; under `Double`
    /// its background worker persists across iterations.
    reader: ChunkReader,
    /// Reusable per-worker key/segment staging for the chunked loads.
    keys_buf: Vec<u32>,
    seg_lens: Vec<usize>,
    /// The worker-side routine and buffers of whichever rank is executing
    /// (ranks run one at a time, so one set of buffers serves them all).
    worker: PhiWorker,
    /// The master's rank-order sum of the per-worker `theta` gradients.
    grad_total: Vec<f64>,
    /// Flat phi updates: one `K`-row per mini-batch vertex.
    updates: Vec<f64>,
    /// Per-pair held-out probabilities, gathered in pair order.
    probs: Vec<f64>,
    /// Block cache for out-of-core adjacency probes in the worker
    /// `update_phi` stage (`None` for resident backends). Pure scratch.
    graph_cache: Option<mmsb_ooc::BlockCache>,
}

/// Logical message-stage ids folded into the fabric fault coordinate so
/// each master-rooted collective of an iteration draws independent fates.
const STAGE_DEPLOY: u64 = 0;
const STAGE_REDUCE: u64 = 1;
const STAGE_BROADCAST: u64 = 2;
const STAGE_COUNT: u64 = 3;

impl DistributedSampler {
    /// Build a distributed sampler. The state layout must be
    /// [`StateLayout::PiSumPhi`] (the DKV row format).
    pub fn new(
        graph: Graph,
        heldout: HeldOut,
        config: SamplerConfig,
        dcfg: DistributedConfig,
    ) -> Result<Self, CoreError> {
        Self::with_backend(graph.into(), heldout, config, dcfg)
    }

    /// Build a distributed sampler over either graph backend (resident
    /// CSR or the out-of-core block-cached format). The chain is bitwise
    /// identical across backends.
    pub fn with_backend(
        graph: mmsb_ooc::GraphBackend,
        heldout: HeldOut,
        config: SamplerConfig,
        dcfg: DistributedConfig,
    ) -> Result<Self, CoreError> {
        dcfg.validate()?;
        if config.layout != StateLayout::PiSumPhi {
            return Err(CoreError::InvalidConfig {
                reason: "distributed sampler requires the PiSumPhi layout".into(),
            });
        }
        let engine = Engine::with_backend(graph, heldout, config)?;
        let n = engine.graph.num_vertices();
        let k = engine.config.k;
        let store = ShardedStore::new(Partition::new(n, dcfg.workers), k + 1);
        let reader = ChunkReader::new(dcfg.chunk_vertices, dcfg.pipeline)
            .with_compute_scale(dcfg.node.scale(1.0));
        let plan = FaultPlan::new(dcfg.faults.unwrap_or_else(|| FaultConfig::none(0)));
        // A fault-configured run always holds a rollback point, even
        // before the first explicit checkpoint: a kill at iteration 0
        // must be recoverable.
        let last_checkpoint = dcfg.faults.map(|_| Checkpoint::capture(&engine));
        let graph_cache = engine
            .graph
            .new_cache(engine.config.graph_cache_blocks, engine.config.seed ^ 0xD15);
        let mut sampler = Self {
            dcfg,
            store: FaultingStore::new(store, plan, RecoveryPolicy::default()),
            plan,
            policy: RecoveryPolicy::default(),
            lost_worker: None,
            last_checkpoint,
            checkpoint_every: None,
            clocks: ClusterClocks::new(dcfg.workers + 1),
            trace: PhaseTimes::new(),
            scratch: ReaderScratch::new(),
            reader,
            keys_buf: Vec::new(),
            seg_lens: Vec::new(),
            worker: PhiWorker::new(k),
            grad_total: vec![0.0; 2 * k],
            updates: vec![0.0; engine.max_batch_vertices() * k],
            probs: vec![0.0; engine.heldout.len()],
            graph_cache,
            engine,
        };
        // Initial population of the collective memory (not charged to the
        // clocks: the paper's measurements likewise start after loading).
        sampler.reload_store()?;
        Ok(sampler)
    }

    /// Build a sampler whose chain continues from `ckpt` instead of the
    /// seed initialization. The graph, held-out set, and configs must be
    /// the ones the checkpointed run used; the restored run then produces
    /// the bitwise-identical trajectory the uninterrupted run would have.
    pub fn resume(
        graph: Graph,
        heldout: HeldOut,
        config: SamplerConfig,
        dcfg: DistributedConfig,
        ckpt: &Checkpoint,
    ) -> Result<Self, CoreError> {
        let mut s = Self::new(graph, heldout, config, dcfg)?;
        s.restore(ckpt)?;
        Ok(s)
    }

    /// Refresh the in-memory rollback checkpoint every `every` iterations
    /// (used both by kill recovery and as the snapshot
    /// [`DistributedSampler::last_checkpoint`] exposes for persistence).
    ///
    /// # Panics
    /// Panics if `every` is zero.
    pub fn with_checkpoint_every(mut self, every: u64) -> Self {
        assert!(every > 0, "checkpoint interval must be positive");
        self.checkpoint_every = Some(every);
        if self.last_checkpoint.is_none() {
            self.last_checkpoint = Some(Checkpoint::capture(&self.engine));
        }
        self
    }

    /// Snapshot the full chain state (state arrays, theta/beta, RNG
    /// streams, iteration, perplexity accumulator).
    pub fn checkpoint(&self) -> Checkpoint {
        let _ckpt_span = mmsb_obs::span(obs_id::S_CHECKPOINT);
        mmsb_obs::counter_add(obs_id::C_CHECKPOINTS, 1);
        Checkpoint::capture(&self.engine)
    }

    /// The most recent automatic checkpoint, if any.
    pub fn last_checkpoint(&self) -> Option<&Checkpoint> {
        self.last_checkpoint.as_ref()
    }

    /// Install `ckpt`, rewinding (or fast-forwarding) the chain to the
    /// captured iteration and reloading every DKV row from it. Virtual
    /// time is *not* rewound — restoring is part of the run's history.
    pub fn restore(&mut self, ckpt: &Checkpoint) -> Result<(), CoreError> {
        ckpt.install(&mut self.engine)?;
        self.reload_store()?;
        self.last_checkpoint = Some(ckpt.clone());
        Ok(())
    }

    /// Re-encode every vertex row from the engine state into the store.
    fn reload_store(&mut self) -> Result<(), CoreError> {
        let n = self.engine.graph.num_vertices();
        let k = self.engine.config.k;
        let mut row = vec![0.0f32; k + 1];
        for a in 0..n {
            self.engine.state.encode_dkv_row(a, &mut row);
            self.store.inner_mut().write_batch(&[a], &row)?;
        }
        Ok(())
    }

    /// Record a phase time in the virtual-time trace and mirror it into
    /// the obs per-phase histogram, so the printed breakdown and an
    /// exported metrics snapshot share one accounting.
    fn trace_add(&mut self, phase: Phase, seconds: f64) {
        self.trace.add(phase, seconds);
        mmsb_obs::hist_record_secs(obs_bridge::phase_hist_id(phase), seconds);
    }

    /// Record one modeled collective. The simulate path never touches
    /// `mmsb-comm` (collectives are priced by the netsim formulas), so
    /// the comm-collective metrics are mirrored here at the model sites.
    fn obs_collective(seconds: f64) {
        mmsb_obs::counter_add(obs_id::C_COMM_COLLECTIVES, 1);
        mmsb_obs::hist_record_secs(obs_id::H_COMM_COLLECTIVE_NS, seconds);
    }

    /// Number of worker ranks (reflects degradation after a worker loss).
    pub fn workers(&self) -> usize {
        self.dcfg.workers
    }

    /// The worker permanently lost to a kill fault, if any.
    pub fn lost_worker(&self) -> Option<usize> {
        self.lost_worker
    }

    /// Run one full iteration.
    pub fn step(&mut self) {
        let _step_span = mmsb_obs::span(obs_id::S_STEP);
        let step_sw = mmsb_obs::metrics_on().then(Stopwatch::start);
        // Permanent worker loss fires at the start of its iteration: the
        // master detects the dead rank, rewinds to the last checkpoint,
        // and re-partitions over the survivors before drawing anything.
        if self.lost_worker.is_none() {
            if let Some(dead) = self.plan.kill_at(self.engine.iteration) {
                self.degrade(dead);
            }
        }
        self.store.set_iteration(self.engine.iteration);
        let mut recovery_t = 0.0f64;

        let r = self.dcfg.workers;
        let k = self.engine.config.k;
        let net = self.dcfg.net;
        let node = self.dcfg.node;

        // ------------------------------------------------- master: draw
        let t0 = Stopwatch::start();
        self.engine.refresh_minibatch();
        let draw = t0.elapsed_secs();
        self.trace_add(Phase::DrawMinibatch, draw);

        // Rank `w` owns part `w` of the contiguous split of the batch's
        // vertices and of its pairs.
        let nv = self.engine.mb_vertices.len();
        let n_pairs = self.engine.mb.pairs.len();

        // Deploy: per-worker bytes = vertex ids + their adjacency rows +
        // the worker's pair share (9 bytes: two ids + observation).
        let deploy_bytes = (0..r)
            .map(|w| {
                let vs = &self.engine.mb_vertices[share(nv, r, w)];
                let adjacency: usize = vs
                    .iter()
                    .map(|&a| self.engine.graph.degree(a) as usize * 4)
                    .sum();
                vs.len() * 4 + adjacency + share(n_pairs, r, w).len() * 9
            })
            .max()
            .unwrap_or(0);
        let deploy = collective::scatter(&net, r + 1, deploy_bytes)
            + self.collective_retry_cost(STAGE_DEPLOY, &mut recovery_t);
        Self::obs_collective(deploy);
        self.trace_add(Phase::DeployMinibatch, deploy);
        self.clocks.advance(0, draw + deploy);
        if self.dcfg.pipeline == PipelineMode::Single {
            // Non-pipelined: workers wait for the deployment.
            let ready = self.clocks.now(0);
            for w in 0..r {
                self.clocks.advance(w + 1, 0.0);
                if self.clocks.now(w + 1) < ready {
                    let wait = ready - self.clocks.now(w + 1);
                    self.clocks.advance(w + 1, wait);
                }
            }
        }
        // Pipelined: the batch was prefetched during the previous
        // iteration's update_phi; workers start immediately and the
        // master's concurrent work folds into the end-of-iteration
        // barrier.

        // -------------------------------------- workers: update_phi
        let params = self.engine.phi_params();
        let mut max_neigh = 0.0f64;
        let mut max_load = 0.0f64;
        let mut max_compute = 0.0f64;
        let mut max_wall = 0.0f64;
        let mut max_stage_recovery = 0.0f64;
        for w in 0..r {
            let rank = w + 1;
            let vs = share(nv, r, w);
            // Sample neighbor sets (worker compute, thread-parallel on the
            // node).
            let t0 = Stopwatch::start();
            self.worker.sample(
                &self.engine.mb_vertices[vs.clone()],
                &self.engine.neighbors,
                &self.engine.heldout,
                self.engine.config.seed,
                self.engine.iteration,
            );
            let neigh = node.scale(t0.elapsed_secs());
            self.clocks.advance(rank, neigh);
            max_neigh = max_neigh.max(neigh);

            // Chunked load + compute over this worker's vertices, routed
            // through the dkv reader. Every buffer involved (keys,
            // segments, row ping-pong, timings, the flat update rows)
            // persists on `self`.
            self.worker
                .stage_keys(self.dcfg.chunk_vertices, &mut self.keys_buf, &mut self.seg_lens);
            let keys = &self.keys_buf;
            let seg_lens = &self.seg_lens;
            let engine = &self.engine;
            let worker = &mut self.worker;
            let out = &mut self.updates[vs.start * k..vs.end * k];
            // The adjacency reader borrows only `self.graph_cache`,
            // disjoint from the engine and buffer borrows above.
            let mut reader = engine.graph.reader(self.graph_cache.as_mut());
            let on_chunk = |_start: usize, _keys: &[u32], rows: &[f32]| {
                worker.on_chunk(
                    &params,
                    engine.state.beta(),
                    rows,
                    |_, a, set, linked| mark_links(reader.neighbors(a), set, linked),
                    out,
                );
            };
            // Both modes deliver identical chunks in identical order to
            // `on_chunk` — only the load execution (and hence time)
            // differs. The clocks always advance by the *modeled* makespan
            // so netsim figures stay comparable; Double additionally
            // records the measured overlapped wall-clock.
            let run = self
                .reader
                .run_segments(
                    self.store.inner(),
                    w,
                    keys,
                    seg_lens,
                    &net,
                    &mut self.scratch,
                    on_chunk,
                )
                .expect("keys are valid vertex ids");
            self.clocks.advance(rank, run.total);
            max_load = max_load.max(run.load);
            max_compute = max_compute.max(run.compute);
            max_wall = max_wall.max(run.wall);

            // Transient faults on this worker's load/compute stage:
            // retried chunk reads plus a possible straggle. Decisions come
            // from the plan alone — the data the pipeline delivered above
            // is already final, so only modeled time changes (the faulty
            // read-retry *data* path is what `FaultingStore`'s own tests
            // pin down).
            if self.dcfg.faults.is_some() {
                let chunks = self.seg_lens.len();
                let per_chunk = if chunks > 0 {
                    run.load / chunks as f64
                } else {
                    0.0
                };
                let mut worker_recovery = self.read_retry_cost(w, chunks, per_chunk);
                if let Some(factor) = self.plan.straggler(self.engine.iteration, w) {
                    worker_recovery += self.policy.straggler_overhead(neigh + run.total, factor);
                }
                self.clocks.advance(rank, worker_recovery);
                max_stage_recovery = max_stage_recovery.max(worker_recovery);
            }
        }
        recovery_t += max_stage_recovery;
        self.trace_add(Phase::SampleNeighbors, max_neigh);
        self.trace_add(Phase::LoadPi, max_load);
        self.trace_add(Phase::UpdatePhi, max_compute);
        if self.dcfg.pipeline == PipelineMode::Double {
            self.trace_add(Phase::Prefetch, max_wall);
        }

        // Barrier before update_pi (memory consistency, paper §III-C).
        let barrier_cost = net.barrier_time(r + 1);
        self.clocks.barrier(barrier_cost);
        self.trace_add(Phase::Barrier, barrier_cost);

        // ------------------------------------------ workers: update_pi
        // Apply updates to the authoritative state, then write the fresh
        // rows through the store (per owning worker's share).
        self.engine.apply_phi_updates_flat(&self.updates[..nv * k]);
        let mut max_pi = 0.0f64;
        let mut max_write_recovery = 0.0f64;
        for w in 0..r {
            let rank = w + 1;
            let t0 = Stopwatch::start();
            let PhiWorker { keys, rows, .. } = &mut self.worker;
            keys.clear();
            keys.extend(self.engine.mb_vertices[share(nv, r, w)].iter().map(|a| a.0));
            rows.resize(keys.len() * (k + 1), 0.0);
            for (&key, row) in keys.iter().zip(rows.chunks_exact_mut(k + 1)) {
                self.engine.state.encode_dkv_row(key, row);
            }
            let compute = node.scale(t0.elapsed_secs());
            let wire = self.store.inner().write_cost(w, keys, &net);
            // The real write goes through the fault layer: a failed
            // attempt really applies a partial prefix, and the retry's
            // idempotent full rewrite converges to the same bytes — only
            // the modeled recovery time differs from the clean run.
            let outcome = self
                .store
                .write_batch_recovered(w, keys, rows, wire)
                .expect("retry budget covers transient write faults");
            self.clocks
                .advance(rank, compute + wire + outcome.recovery_seconds);
            max_pi = max_pi.max(compute + wire);
            max_write_recovery = max_write_recovery.max(outcome.recovery_seconds);
        }
        recovery_t += max_write_recovery;
        self.trace_add(Phase::UpdatePi, max_pi);

        // Barrier before update_beta (fresh pi everywhere).
        self.clocks.barrier(barrier_cost);
        self.trace_add(Phase::Barrier, barrier_cost);

        // --------------------------------- update_beta_theta (4 steps)
        let mut beta_stage = 0.0f64;
        self.grad_total.fill(0.0);
        let mut max_grad_time = 0.0f64;
        for w in 0..r {
            let rank = w + 1;
            let ps = share(n_pairs, r, w);
            // Load pi for the endpoints of this worker's pair share.
            let PhiWorker {
                keys,
                grad,
                scratch,
                ..
            } = &mut self.worker;
            keys.clear();
            keys.extend(
                self.engine.mb.pairs[ps.clone()]
                    .iter()
                    .flat_map(|&(e, _)| [e.lo().0, e.hi().0]),
            );
            let wire = self.store.inner().read_cost(w, keys, &net);
            let t0 = Stopwatch::start();
            self.engine.theta_gradient(ps.start, ps.end, scratch, grad);
            let compute = node.scale(t0.elapsed_secs());
            for (g, c) in self.grad_total.iter_mut().zip(grad.iter()) {
                *g += c;
            }
            self.clocks.advance(rank, wire + compute);
            max_grad_time = max_grad_time.max(wire + compute);
        }
        beta_stage += max_grad_time;
        // MPI reduce of the per-worker gradients to the master. A dropped
        // contribution stalls the sync point for its timeout + retransmit.
        let reduce = collective::reduce(&net, r + 1, 2 * k * 8)
            + self.collective_retry_cost(STAGE_REDUCE, &mut recovery_t);
        Self::obs_collective(reduce);
        let t_reduce = self.clocks.barrier(reduce); // reduce is a sync point
        beta_stage += reduce;
        let _ = t_reduce;
        // Master: theta step + beta broadcast.
        let t0 = Stopwatch::start();
        self.engine.apply_theta_update(&self.grad_total);
        let master_compute = t0.elapsed_secs();
        let bcast = collective::broadcast(&net, r + 1, k * 8)
            + self.collective_retry_cost(STAGE_BROADCAST, &mut recovery_t);
        Self::obs_collective(bcast);
        self.clocks.advance(0, master_compute + bcast);
        self.clocks.barrier(0.0);
        beta_stage += master_compute + bcast;
        self.trace_add(Phase::UpdateBetaTheta, beta_stage);

        if recovery_t > 0.0 {
            self.trace_add(Phase::Recovery, recovery_t);
        }

        self.engine.bump_iteration();
        if let Some(every) = self.checkpoint_every {
            if self.engine.iteration.is_multiple_of(every) {
                let _ckpt_span = mmsb_obs::span(obs_id::S_CHECKPOINT);
                mmsb_obs::counter_add(obs_id::C_CHECKPOINTS, 1);
                self.last_checkpoint = Some(Checkpoint::capture(&self.engine));
            }
        }
        mmsb_obs::counter_add(obs_id::C_SAMPLER_STEPS, 1);
        if let Some(sw) = step_sw {
            mmsb_obs::hist_record_ns(obs_id::H_STEP_NS, sw.elapsed_ns());
        }
    }

    /// Run until `iterations` *more* iterations have completed. (A
    /// permanent worker loss rewinds the chain to its checkpoint; the
    /// rewound iterations are re-executed, so the target is still
    /// reached.)
    pub fn run(&mut self, iterations: u64) {
        let target = self.engine.iteration + iterations;
        while self.engine.iteration < target {
            self.step();
        }
    }

    /// Absorb the permanent loss of worker `dead`: rewind the chain to
    /// the last checkpoint, re-partition the store over the `R - 1`
    /// survivors, and charge the modeled detection + re-load cost as
    /// recovery time. Worker count never changes the numerics, so the
    /// degraded run still reproduces the fault-free chain bit-for-bit.
    fn degrade(&mut self, dead: usize) {
        mmsb_obs::counter_add(obs_id::C_RECOVERIES, 1);
        let ckpt = self
            .last_checkpoint
            .clone()
            .expect("fault-configured samplers always hold a rollback checkpoint");
        ckpt.install(&mut self.engine)
            .expect("self-captured checkpoint always matches its sampler");
        self.lost_worker = Some(dead);
        self.dcfg.workers -= 1;
        let n = self.engine.graph.num_vertices();
        let k = self.engine.config.k;
        let store = ShardedStore::new(Partition::new(n, self.dcfg.workers), k + 1);
        self.store = FaultingStore::new(store, self.plan, self.policy);
        self.reload_store()
            .expect("fresh partition accepts every vertex");
        // Model the recovery: the survivors wait out the stage timeout
        // that detects the loss, then the master re-scatters the full
        // checkpointed state over the new partition.
        let bytes = n as usize * (k + 1) * 4;
        let cost = self.policy.stage_timeout
            + collective::scatter(&self.dcfg.net, self.dcfg.workers + 1, bytes);
        Self::obs_collective(cost);
        let resume_at = self.clocks.max() + cost;
        self.clocks = ClusterClocks::new(self.dcfg.workers + 1);
        self.clocks.barrier(resume_at);
        self.trace_add(Phase::Recovery, cost);
    }

    /// Modeled seconds `rank`'s chunked read stage spends on transient
    /// DKV faults this iteration: each failed attempt re-issues one
    /// chunk's load after a backoff; a slow replica stretches its chunk
    /// by the plan's factor.
    fn read_retry_cost(&self, rank: usize, chunks: usize, per_chunk: f64) -> f64 {
        let iteration = self.engine.iteration;
        let mut extra = 0.0;
        for chunk in 0..chunks {
            let site = ((rank as u64) << 32) ^ (chunk as u64) ^ (iteration << 16);
            for attempt in 0..=self.policy.max_retries {
                match self.plan.read_fault(rank, iteration, chunk, attempt) {
                    Some(DkvFault::Fail) => {
                        extra += per_chunk + self.policy.backoff(&self.plan, site, attempt);
                    }
                    Some(DkvFault::Slow(factor)) => {
                        extra += per_chunk * (factor - 1.0);
                        break;
                    }
                    None => break,
                }
            }
        }
        extra
    }

    /// Modeled extra seconds of the slowest link in a master-rooted
    /// collective under the plan's fabric faults. A dropped frame costs
    /// its link the stage timeout plus a backoff before the retransmit
    /// (which draws a fresh fate); a delayed frame costs its extra
    /// in-flight time; a duplicated frame is dropped free of charge by
    /// the receiver's de-duplication. Accumulates into `recovery_t`.
    fn collective_retry_cost(&self, stage: u64, recovery_t: &mut f64) -> f64 {
        if self.dcfg.faults.is_none() {
            return 0.0;
        }
        let iteration = self.engine.iteration;
        let mut worst = 0.0f64;
        for w in 0..self.dcfg.workers {
            // One logical message per link per stage; retries fold into
            // the coordinate exactly like the wire protocol in mmsb-comm.
            let coord = (iteration * STAGE_COUNT + stage) * 64;
            let site = coord ^ ((w as u64) << 48);
            let mut extra = 0.0;
            for attempt in 0..=self.policy.max_retries {
                match self.plan.message_fault(w + 1, 0, coord + attempt as u64) {
                    Some(MsgFault::Drop) => {
                        extra += self.policy.stage_timeout
                            + self.policy.backoff(&self.plan, site, attempt);
                    }
                    Some(MsgFault::Delay(secs)) => {
                        extra += secs;
                        break;
                    }
                    Some(MsgFault::Duplicate) | None => break,
                }
            }
            worst = worst.max(extra);
        }
        *recovery_t += worst;
        worst
    }

    /// Distributed held-out perplexity: each worker loads the `pi` rows of
    /// its static `E_h` partition, computes its probabilities, and the
    /// per-pair probabilities are gathered at the master, which folds them
    /// into the running posterior average (Eq. 7). (The paper reduces
    /// partial log-sums; gathering the probability vectors instead keeps
    /// the posterior averaging bit-identical to the single-node drivers —
    /// the wire cost of the gather is modeled either way.)
    pub fn evaluate_perplexity(&mut self) -> f64 {
        let r = self.dcfg.workers;
        let net = self.dcfg.net;
        let node = self.dcfg.node;
        let total = self.engine.heldout.len();
        let mut max_t = 0.0f64;
        let mut offset = 0usize;
        for w in 0..r {
            let rank = w + 1;
            let share = self.engine.heldout.partition(w, r);
            let keys = &mut self.worker.keys;
            keys.clear();
            keys.extend(share.iter().flat_map(|&(e, _)| [e.lo().0, e.hi().0]));
            let wire = self.store.inner().read_cost(w, keys, &net);
            let (lo, hi) = (offset, offset + share.len());
            let t0 = Stopwatch::start();
            self.engine
                .perplexity_probs_into(lo, hi, &mut self.probs[lo..hi]);
            let compute = node.scale(t0.elapsed_secs());
            offset = hi;
            self.clocks.advance(rank, wire + compute);
            max_t = max_t.max(wire + compute);
        }
        let gather = collective::gather(&net, r + 1, (total / r.max(1)) * 8);
        Self::obs_collective(gather);
        self.clocks.advance(0, gather);
        self.clocks.barrier(0.0);
        self.trace_add(Phase::Perplexity, max_t + gather);
        self.engine.record_perplexity_sample(&self.probs[..total])
    }

    /// The virtual (modeled cluster) time elapsed so far, in seconds.
    pub fn virtual_time(&self) -> f64 {
        self.clocks.max()
    }

    /// Completed iterations.
    pub fn iteration(&self) -> u64 {
        self.engine.iteration
    }

    /// The current model state.
    pub fn state(&self) -> &ModelState {
        &self.engine.state
    }

    /// Threshold-extract the inferred communities.
    pub fn communities(&self, threshold: f32) -> Communities {
        Communities::from_state(&self.engine.state, threshold)
    }

    /// The timing report over everything run so far (Figure 1 / Table III
    /// rows).
    pub fn report(&self) -> TraceReport {
        TraceReport {
            phases: self.trace.clone(),
            iterations: self.engine.iteration,
            total_seconds: self.clocks.max(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParallelSampler;
    use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};
    use mmsb_rand::Xoshiro256PlusPlus;

    fn setup(seed: u64) -> (Graph, HeldOut) {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let gen = generate_planted(
            &PlantedConfig {
                num_vertices: 120,
                num_communities: 3,
                mean_community_size: 45.0,
                memberships_per_vertex: 1.1,
                internal_degree: 8.0,
                background_degree: 0.5,
            },
            &mut rng,
        );
        HeldOut::split(&gen.graph, 40, &mut rng)
    }

    #[test]
    fn split_contiguous_covers_everything() {
        for parts in [1, 2, 3, 7, 10, 15] {
            let mut next = 0;
            for p in 0..parts {
                let part = share(10, parts, p);
                assert_eq!(part.start, next, "parts={parts} p={p}");
                // Even: the first `10 % parts` parts hold one item more.
                assert_eq!(part.len(), 10 / parts + usize::from(p < 10 % parts));
                next = part.end;
            }
            assert_eq!(next, 10, "parts={parts}");
        }
    }

    #[test]
    fn matches_sequential_chain_closely() {
        let (g, h) = setup(1);
        let cfg = SamplerConfig::new(3).with_seed(7);
        let mut seq = ParallelSampler::with_threads(g.clone(), h.clone(), cfg.clone(), 1).unwrap();
        let mut dist = DistributedSampler::new(g, h, cfg, DistributedConfig::das5(4)).unwrap();
        seq.run(10);
        dist.run(10);
        // pi rows must match bitwise (phi updates are per-vertex pure).
        for a in 0..seq.state().n() {
            assert_eq!(seq.state().pi_row(a), dist.state().pi_row(a), "vertex {a}");
        }
        // theta matches up to the reduction association order.
        for (s, d) in seq.state().theta().iter().zip(dist.state().theta()) {
            let rel = (s - d).abs() / s.abs().max(1e-12);
            assert!(rel < 1e-6, "theta diverged: {s} vs {d}");
        }
    }

    #[test]
    fn worker_count_does_not_change_numerics() {
        let (g, h) = setup(2);
        let cfg = SamplerConfig::new(3).with_seed(3);
        let mut d2 =
            DistributedSampler::new(g.clone(), h.clone(), cfg.clone(), DistributedConfig::das5(2))
                .unwrap();
        let mut d8 = DistributedSampler::new(g, h, cfg, DistributedConfig::das5(8)).unwrap();
        d2.run(8);
        d8.run(8);
        for a in 0..d2.state().n() {
            assert_eq!(d2.state().pi_row(a), d8.state().pi_row(a), "vertex {a}");
        }
        let p2 = d2.evaluate_perplexity();
        let p8 = d8.evaluate_perplexity();
        assert!((p2 - p8).abs() / p2 < 1e-9, "{p2} vs {p8}");
    }

    #[test]
    fn pipelining_changes_time_not_values() {
        let (g, h) = setup(3);
        let cfg = SamplerConfig::new(3).with_seed(5);
        let mut single = DistributedSampler::new(
            g.clone(),
            h.clone(),
            cfg.clone(),
            DistributedConfig::das5(4).with_pipeline(PipelineMode::Single),
        )
        .unwrap();
        let mut double = DistributedSampler::new(
            g,
            h,
            cfg,
            DistributedConfig::das5(4).with_pipeline(PipelineMode::Double),
        )
        .unwrap();
        single.run(6);
        double.run(6);
        for a in 0..single.state().n() {
            assert_eq!(single.state().pi_row(a), double.state().pi_row(a));
        }
        // Time, on modelled quantities only (`virtual_time()` also holds
        // measured compute, so ordering the two runs by it follows host
        // load): pipelining hides the same loads behind compute — it
        // neither adds nor removes wire time — and only the pipelined run
        // has an overlapped wall-clock to report. That the double-buffered
        // makespan never exceeds the serial one for equal chunk profiles
        // is `mmsb_dkv::pipeline`'s `schedule_bounds`.
        let (s, d) = (single.report().phases, double.report().phases);
        assert_eq!(s.total(Phase::LoadPi), d.total(Phase::LoadPi));
        assert_eq!(s.count(Phase::Prefetch), 0);
        assert_eq!(d.count(Phase::Prefetch), 6);
    }

    #[test]
    fn virtual_time_advances_and_report_is_consistent() {
        let (g, h) = setup(4);
        let cfg = SamplerConfig::new(3).with_seed(1);
        let mut d = DistributedSampler::new(g, h, cfg, DistributedConfig::das5(4)).unwrap();
        d.run(5);
        assert!(d.virtual_time() > 0.0);
        let r = d.report();
        assert_eq!(r.iterations, 5);
        assert!(r.total_ms_per_iter() > 0.0);
        assert!(r.phases.total(Phase::LoadPi) > 0.0);
        assert!(r.phases.total(Phase::UpdatePhi) > 0.0);
        assert!(r.phases.count(Phase::Barrier) >= 10);
    }

    #[test]
    fn rejects_bad_configs() {
        let (g, h) = setup(5);
        let cfg = SamplerConfig::new(3);
        assert!(DistributedSampler::new(
            g.clone(),
            h.clone(),
            cfg.clone(),
            DistributedConfig::das5(0)
        )
        .is_err());
        let full = cfg.clone().with_layout(StateLayout::FullPhi);
        assert!(DistributedSampler::new(g.clone(), h.clone(), full, DistributedConfig::das5(2))
            .is_err());
        let mut bad = DistributedConfig::das5(2);
        bad.chunk_vertices = 0;
        assert!(DistributedSampler::new(g, h, cfg, bad).is_err());
    }

    #[test]
    fn more_workers_is_faster_for_fixed_problem() {
        // The strong-scaling sanity check behind Figure 1, on modelled
        // time only: with the same chain split over 8 workers instead of
        // 2, the most loaded rank's `pi` loads (pure cost-model output —
        // `virtual_time()` also holds *measured* compute, which follows
        // host load) must take less wire time.
        let (g, h) = setup(6);
        let cfg = SamplerConfig::new(8)
            .with_seed(2)
            .with_neighbor_sample(48)
            .with_minibatch(mmsb_graph::minibatch::Strategy::RandomPair { size: 96 });
        let mut d2 =
            DistributedSampler::new(g.clone(), h.clone(), cfg.clone(), DistributedConfig::das5(2))
                .unwrap();
        let mut d8 = DistributedSampler::new(g, h, cfg, DistributedConfig::das5(8)).unwrap();
        d2.run(6);
        d8.run(6);
        let load2 = d2.report().phases.total(Phase::LoadPi);
        let load8 = d8.report().phases.total(Phase::LoadPi);
        assert!(
            load8 < load2,
            "load_pi of the max-loaded rank: 8 workers {load8} vs 2 workers {load2}"
        );
    }
}
