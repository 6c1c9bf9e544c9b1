//! The distributed master–worker driver (paper §III), in lockstep
//! simulation.
//!
//! One master plus `R` workers. The mini-batch and its adjacency rows are
//! scattered by the master; `pi` lives in the DKV store partitioned over
//! the workers; `theta`/`beta` live at the master and `beta` is broadcast
//! each iteration.
//!
//! **Execution model** (DESIGN.md §3/§7): the chain is the pool driver's.
//! A [`DistributedSampler`] is a [`ParallelSampler`] plus a
//! [`ClusterModel`]: each step runs the pool driver's own step, which
//! also records its batch and DKV keys ([`StepRecord`]), and then
//! [`ClusterModel::price`] charges what each rank of the paper's cluster
//! would do with that record. It computes nothing, and no price reads a
//! clock. A stage counts its work (pairs drawn, neighbours sampled, `pi`
//! rows gathered × K, vertices × K, pairs × K) and charges the owning
//! rank's [`ClusterClocks`] entry the count at [`NodeComputeModel::PRICES`],
//! Amdahl-scaled by the configured [`NodeComputeModel`] (the per-node
//! OpenMP layer). Every communication and DKV operation advances the
//! clock by an `mmsb-netsim` cost; barriers synchronize clocks to the
//! max. The virtual makespan is what Figures 1–4 plot, and it is a
//! function of the configuration and seed alone: neither the pool's
//! size, its schedule nor the load on the host changes it.
//!
//! **One copy of `pi`**: stages are barrier-separated, so between two
//! barriers the paper's store holds exactly the master's state. Every DKV
//! access is therefore only *priced*: the rank's clock is charged the
//! [`CostModel`]'s RDMA time for the same keys at `K + 1` floats per row.
//! A rank's `update_phi` is priced from the recorded keys of its share:
//! [`pipeline::price`] charges the share's `pi` load, chunk by chunk,
//! under the configured [`PipelineMode`].
//!
//! **Chain fidelity**: the chain is the pool driver's step, so it is
//! bitwise that of the pool driver at every worker count, in both
//! pipeline modes, under every fault schedule and across a worker loss,
//! which re-prices the steps since the rollback point at `R - 1` workers.

use super::parallel::ParallelSampler;
use super::worker::{share, StepRecord};
use crate::checkpoint::Checkpoint;
use crate::communities::Communities;
use crate::compute_model::NodeComputeModel;
use crate::config::{SamplerConfig, StateLayout};
use crate::{CoreError, ModelState};
use mmsb_dkv::pipeline::{self, PipelineMode};
use mmsb_dkv::{CostModel, OpObs, Partition};
use mmsb_graph::heldout::HeldOut;
use mmsb_graph::{Edge, Graph};
use mmsb_netsim::{
    collective, ClusterClocks, DkvFault, FaultConfig, FaultPlan, MsgFault, NetworkModel, Phase,
    PhaseTimes, RecoveryPolicy, TraceReport,
};
use mmsb_obs::id as obs_id;
use mmsb_ooc::GraphBackend;
use std::ops::Range;

/// Cluster-level configuration of the distributed sampler.
#[derive(Debug, Clone, Copy)]
pub struct DistributedConfig {
    /// Number of worker ranks `R` (the paper uses up to 64, plus the
    /// master).
    pub workers: usize,
    /// Network cost model.
    pub net: NetworkModel,
    /// Per-node thread-parallelism model applied to counted compute.
    pub node: NodeComputeModel,
    /// Single- or double-buffered `pi` loads (Figure 3 / Table III).
    pub pipeline: PipelineMode,
    /// Mini-batch vertices per load/compute chunk.
    pub chunk_vertices: usize,
    /// Seeded fault schedule, or `None` for a fault-free cluster.
    ///
    /// Transient faults (failed/slow DKV operations, lost/duplicated/
    /// delayed messages, stragglers) change only the *modeled time*: a
    /// retry is priced, never re-executed, so the chain stays
    /// bitwise-identical to the fault-free run. A `kill_worker` entry is
    /// permanent: the steps since the modelled rollback point are
    /// re-priced on `R - 1` workers, and the run continues there.
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
        if let Some((_, rank)) = self.faults.and_then(|f| f.kill_worker) {
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
        Ok(())
    }
}

/// The distributed SG-MCMC sampler over a simulated cluster: the pool
/// driver's [`ParallelSampler`] plus a [`ClusterModel`] that prices its
/// steps.
pub struct DistributedSampler {
    /// The chain.
    sampler: ParallelSampler,
    /// The price of its steps.
    cluster: ClusterModel,
    /// The step just run.
    record: StepRecord,
    /// Copies of the steps a kill still to come re-prices: those of the
    /// iterations in `reprice`.
    held: Vec<StepRecord>,
    /// From the kill's rollback point to the kill (empty without a kill;
    /// see [`DistributedSampler::with_checkpoint_every`]).
    reprice: Range<u64>,
    /// Set once a permanent worker loss has been absorbed (at most one
    /// kill per schedule).
    lost_worker: Option<usize>,
}

/// The paper's cluster as a price: what a recorded step costs each rank,
/// charged to the ranks' clocks and the phase times. It reads a
/// [`StepRecord`] and the graph's degrees, never the chain.
struct ClusterModel {
    dcfg: DistributedConfig,
    /// Communities: a `pi` row is `k + 1` floats.
    k: usize,
    /// The price of DKV access to `pi` partitioned over the current
    /// workers.
    cost: CostModel,
    /// The fault schedule (a no-op plan when `dcfg.faults` is `None`).
    plan: FaultPlan,
    policy: RecoveryPolicy,
    /// Index 0 is the master; worker `w` is rank `w + 1`.
    clocks: ClusterClocks,
    trace: PhaseTimes,
    /// DKV keys of the rank being priced: its share's keys from the
    /// record (with each vertex's end offset in `key_ends`), the share's
    /// vertices (write-back), its pairs' endpoints (`theta`) or its
    /// held-out pairs' endpoints.
    keys: Vec<u32>,
    key_ends: Vec<usize>,
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
        graph: GraphBackend,
        heldout: HeldOut,
        config: SamplerConfig,
        dcfg: DistributedConfig,
    ) -> Result<Self, CoreError> {
        Self::with_threads(graph, heldout, config, dcfg, mmsb_obs::export::host_cores())
    }

    /// [`DistributedSampler::with_backend`] with an explicit pool size
    /// (at least 1). The pool size changes how fast the step runs, never
    /// what it computes or the virtual time it is charged.
    pub(crate) fn with_threads(
        graph: GraphBackend,
        heldout: HeldOut,
        config: SamplerConfig,
        dcfg: DistributedConfig,
        threads: usize,
    ) -> Result<Self, CoreError> {
        dcfg.validate()?;
        if config.layout != StateLayout::PiSumPhi {
            return Err(CoreError::InvalidConfig {
                reason: "distributed sampler requires the PiSumPhi layout".into(),
            });
        }
        let sampler = ParallelSampler::with_backend_threads(graph, heldout, config, threads)?;
        let engine = &sampler.engine;
        Ok(Self {
            cluster: ClusterModel::new(dcfg, engine.graph.num_vertices(), engine.config.k),
            record: StepRecord::new(engine),
            held: Vec::new(),
            reprice: dcfg.faults.and_then(|f| f.kill_worker).map_or(0..0, |(kill, _)| 0..kill),
            lost_worker: None,
            sampler,
        })
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
        s.sampler.restore(ckpt)?;
        Ok(s)
    }

    /// Set the modelled rollback cadence to `every` iterations. A kill
    /// re-prices at `R - 1` workers the steps since its rollback point,
    /// the later of the run's start and the last multiple of `every` at
    /// or before the kill (the run's start without a cadence), holding
    /// their records until then: at most `min(every, kill - start)`, and
    /// none without a kill. Nothing is captured; the chain is the same.
    ///
    /// # Panics
    /// Panics if `every` is zero.
    pub fn with_checkpoint_every(mut self, every: u64) -> Self {
        assert!(every > 0, "checkpoint interval must be positive");
        self.reprice.start = self.reprice.end / every * every;
        self
    }

    /// Snapshot the full chain state (state arrays, theta/beta, RNG
    /// streams, iteration, perplexity accumulator): the pool driver's
    /// [`ParallelSampler::checkpoint`]. The state arrays are shared, not
    /// copied; see [`Checkpoint`].
    pub fn checkpoint(&self) -> Checkpoint {
        self.sampler.checkpoint()
    }

    /// Number of worker ranks (reflects degradation after a worker loss).
    pub fn workers(&self) -> usize {
        self.cluster.dcfg.workers
    }

    /// The worker permanently lost to a kill fault, if any.
    pub fn lost_worker(&self) -> Option<usize> {
        self.lost_worker
    }

    /// Run one full iteration: absorb a worker loss due now, run the pool
    /// driver's step (recording it), then price it.
    pub fn step(&mut self) {
        // Permanent worker loss fires at the start of its iteration: the
        // master detects the dead rank and re-partitions over the
        // survivors before drawing anything.
        let iteration = self.sampler.iteration();
        if self.lost_worker.is_none() {
            if let Some(dead) = self.cluster.plan.kill_at(iteration) {
                self.degrade(dead);
            }
        }
        self.sampler.step_recording(Some(&mut self.record));
        self.cluster.price(&self.record, &self.sampler.engine.graph);
        if self.reprice.contains(&iteration) {
            self.held.push(self.record.clone());
        }
    }

    /// Run `iterations` more iterations.
    pub fn run(&mut self, iterations: u64) {
        for _ in 0..iterations {
            self.step();
        }
    }

    /// Absorb the permanent loss of worker `dead`: re-partition, charge
    /// the detection + re-scatter as recovery time, then re-price the
    /// held steps at `R - 1`, in order, under their own iterations. No
    /// step re-runs: the worker count decides a step's price, never what
    /// it computes, so the chain is already what a replay would compute.
    fn degrade(&mut self, dead: usize) {
        mmsb_obs::counter_add(obs_id::C_RECOVERIES, 1);
        self.lost_worker = Some(dead);
        let graph = &self.sampler.engine.graph;
        self.cluster.lose_worker(graph.num_vertices());
        for record in &self.held {
            self.cluster.price(record, graph);
        }
        self.held = Vec::new();
    }

    /// Distributed held-out perplexity: the pool driver's
    /// [`ParallelSampler::evaluate_perplexity`], priced as the paper's
    /// cluster runs it — each worker loads the `pi` rows of its static
    /// share of `E_h` (the same contiguous [`share`] split as the
    /// mini-batch) and computes its probabilities, and the per-pair
    /// probabilities are gathered at the master, which folds them into
    /// the running posterior average (Eq. 7). (The paper reduces partial
    /// log-sums; the gather of the probability vectors is priced instead,
    /// matching the averaging the chain performs.)
    pub fn evaluate_perplexity(&mut self) -> f64 {
        self.cluster.price_perplexity(self.sampler.engine.heldout.pairs());
        self.sampler.evaluate_perplexity()
    }

    /// The virtual (modeled cluster) time elapsed so far, in seconds.
    pub fn virtual_time(&self) -> f64 {
        self.cluster.clocks.max()
    }

    /// Completed iterations.
    pub fn iteration(&self) -> u64 {
        self.sampler.iteration()
    }

    /// The current model state.
    pub fn state(&self) -> &ModelState {
        self.sampler.state()
    }

    /// Threshold-extract the inferred communities.
    pub fn communities(&self, threshold: f32) -> Communities {
        self.sampler.communities(threshold)
    }

    /// The timing report over everything run so far (Figure 1 / Table III
    /// rows).
    pub fn report(&self) -> TraceReport {
        TraceReport {
            phases: self.cluster.trace.clone(),
            iterations: self.sampler.iteration(),
            total_seconds: self.cluster.clocks.max(),
        }
    }
}

impl ClusterModel {
    /// A healthy cluster of `dcfg.workers` workers over `n` vertices of
    /// `k` communities, every clock at zero.
    fn new(dcfg: DistributedConfig, n: u32, k: usize) -> Self {
        Self {
            dcfg,
            k,
            cost: CostModel::new(Partition::new(n, dcfg.workers), k + 1, dcfg.net),
            plan: FaultPlan::new(dcfg.faults.unwrap_or_else(|| FaultConfig::none(0))),
            policy: RecoveryPolicy::default(),
            clocks: ClusterClocks::new(dcfg.workers + 1),
            trace: PhaseTimes::new(),
            keys: Vec::new(),
            key_ends: Vec::new(),
        }
    }

    /// Record one modeled collective (priced by the netsim formulas; no
    /// message is sent) in the comm-collective metrics.
    fn obs_collective(seconds: f64) {
        mmsb_obs::counter_add(obs_id::C_COMM_COLLECTIVES, 1);
        mmsb_obs::hist_record_secs(obs_id::H_COMM_COLLECTIVE_NS, seconds);
    }

    /// Lose a worker of a cluster over `n` vertices: the survivors wait
    /// out the stage timeout that detects the loss, then the master
    /// re-scatters the full state over their new partition.
    fn lose_worker(&mut self, n: u32) {
        self.dcfg.workers -= 1;
        let (r, net) = (self.dcfg.workers, self.dcfg.net);
        self.cost = CostModel::new(Partition::new(n, r), self.k + 1, net);
        let bytes = n as usize * (self.k + 1) * 4;
        let cost = self.policy.stage_timeout + collective::scatter(&net, r + 1, bytes);
        Self::obs_collective(cost);
        let resume_at = self.clocks.max() + cost;
        self.clocks = ClusterClocks::new(r + 1);
        self.clocks.barrier(resume_at);
        self.trace.add(Phase::Recovery, cost);
    }

    /// Charge the clocks what `step` costs the paper's cluster, at the
    /// step's own iteration (its fault coordinates). Rank `w` owns part
    /// `w` of the contiguous split of the batch's vertices and of its
    /// pairs; `graph` gives the degrees of the adjacency rows it is sent.
    fn price(&mut self, step: &StepRecord, graph: &GraphBackend) {
        let (iteration, k) = (step.iteration, self.k);
        let mut recovery_t = 0.0f64;
        let (r, net, node) = (self.dcfg.workers, self.dcfg.net, self.dcfg.node);
        let prices = NodeComputeModel::PRICES;

        // ------------------------------------------------- master: draw
        let (nv, n_pairs) = (step.vertices.len(), step.pairs.len());
        let draw = prices.draw_pair * n_pairs as f64;
        self.trace.add(Phase::DrawMinibatch, draw);

        // Deploy: per-worker bytes = vertex ids + their adjacency rows +
        // the worker's pair share (9 bytes: two ids + observation).
        let deploy_bytes = (0..r)
            .map(|w| {
                let vs = &step.vertices[share(nv, r, w)];
                let adjacency: usize = vs.iter().map(|&a| graph.degree(a) as usize * 4).sum();
                vs.len() * 4 + adjacency + share(n_pairs, r, w).len() * 9
            })
            .max()
            .unwrap_or(0);
        let deploy = collective::scatter(&net, r + 1, deploy_bytes)
            + self.collective_retry_cost(STAGE_DEPLOY, iteration, &mut recovery_t);
        Self::obs_collective(deploy);
        self.trace.add(Phase::DeployMinibatch, deploy);
        self.clocks.advance(0, draw + deploy);
        if self.dcfg.pipeline == PipelineMode::Single {
            // Non-pipelined: workers wait for the deployment.
            let ready = self.clocks.now(0);
            for w in 0..r {
                let wait = ready - self.clocks.now(w + 1);
                self.clocks.advance(w + 1, wait.max(0.0));
            }
        }
        // Pipelined: the batch was prefetched during the previous
        // iteration's update_phi; workers start immediately and the
        // master's concurrent work folds into the end-of-iteration
        // barrier.

        // -------------------------------------- workers: update_phi
        // Each rank samples its share's neighbour sets, then loads the
        // share's `pi` rows (per vertex its own row, then its neighbours'
        // rows, as the step recorded them) chunk by chunk and computes on
        // them.
        let key_secs = node.worker_secs(prices.phi_row_k, k);
        let mut max_sample = 0.0f64;
        let mut max_load = 0.0f64;
        let mut max_compute = 0.0f64;
        let mut max_hidden = 0.0f64;
        let mut max_stage_recovery = 0.0f64;
        for w in 0..r {
            let rank = w + 1;
            let vs = share(nv, r, w);
            self.keys.clear();
            self.key_ends.clear();
            for i in vs.clone() {
                self.keys.extend_from_slice(step.keys(i));
                self.key_ends.push(self.keys.len());
            }
            let sample = node.worker_secs(prices.sample_neighbor, self.keys.len() - vs.len());
            let run = pipeline::price(
                &self.cost,
                w,
                &self.keys,
                &self.key_ends,
                self.dcfg.chunk_vertices,
                self.dcfg.pipeline,
                key_secs,
            );
            self.clocks.advance(rank, sample);
            max_sample = max_sample.max(sample);
            self.clocks.advance(rank, run.total);
            max_load = max_load.max(run.load);
            max_compute = max_compute.max(run.compute);
            max_hidden = max_hidden.max(run.hidden());

            // Transient faults on this worker's load/compute stage:
            // retried chunk reads plus a possible straggle. They change
            // only modeled time.
            if self.dcfg.faults.is_some() {
                let per_chunk = if run.chunks > 0 {
                    run.load / run.chunks as f64
                } else {
                    0.0
                };
                let mut worker_recovery = self.read_retry_cost(w, iteration, run.chunks, per_chunk);
                if let Some(factor) = self.plan.straggler(iteration, w) {
                    worker_recovery += self.policy.straggler_overhead(sample + run.total, factor);
                }
                self.clocks.advance(rank, worker_recovery);
                max_stage_recovery = max_stage_recovery.max(worker_recovery);
            }
        }
        recovery_t += max_stage_recovery;
        self.trace.add(Phase::SampleNeighbors, max_sample);
        self.trace.add(Phase::LoadPi, max_load);
        self.trace.add(Phase::UpdatePhi, max_compute);
        if self.dcfg.pipeline == PipelineMode::Double {
            self.trace.add(Phase::Prefetch, max_hidden);
        }

        // Barrier before update_pi (memory consistency, paper §III-C).
        let barrier_cost = net.barrier_time(r + 1);
        self.clocks.barrier(barrier_cost);
        self.trace.add(Phase::Barrier, barrier_cost);

        // ------------------------------------------ workers: update_pi
        // Each worker pays for applying its share's updates and for the
        // write-back of those rows.
        let mut max_pi = 0.0f64;
        let mut max_write_recovery = 0.0f64;
        for w in 0..r {
            let rank = w + 1;
            let vs = share(nv, r, w);
            let compute = node.worker_secs(prices.apply_vertex_k, vs.len() * k);
            self.keys.clear();
            self.keys.extend(step.vertices[vs].iter().map(|a| a.0));
            let wire = {
                let _obs = OpObs::write(&self.keys);
                self.cost.write_cost(w, &self.keys)
            };
            // A failed write is re-issued whole (writes are idempotent row
            // overwrites); only its modeled time is paid.
            let site = site_hash(w as u64, u64::MAX, iteration);
            let recovery = self
                .dkv_retry_cost(site, wire, obs_id::C_DKV_WRITE_RETRIES, |attempt| {
                    self.plan.write_fault(w, iteration, attempt)
                })
                .expect("retry budget covers transient write faults");
            self.clocks.advance(rank, compute + wire + recovery);
            max_pi = max_pi.max(compute + wire);
            max_write_recovery = max_write_recovery.max(recovery);
        }
        recovery_t += max_write_recovery;
        self.trace.add(Phase::UpdatePi, max_pi);

        // Barrier before update_beta (fresh pi everywhere).
        self.clocks.barrier(barrier_cost);
        self.trace.add(Phase::Barrier, barrier_cost);

        // --------------------------------- update_beta_theta (4 steps)
        // Each worker loads the `pi` rows of its pair share and sums their
        // gradient, an MPI reduce brings the sums to the master, and the
        // master steps theta and broadcasts beta.
        let mut beta_stage = self.price_pair_shares(&step.pairs, |&e| e, prices.theta_pair_k);
        // MPI reduce of the per-worker gradients to the master. A dropped
        // contribution stalls the sync point for its timeout + retransmit.
        let reduce = collective::reduce(&net, r + 1, 2 * k * 8)
            + self.collective_retry_cost(STAGE_REDUCE, iteration, &mut recovery_t);
        Self::obs_collective(reduce);
        self.clocks.barrier(reduce); // reduce is a sync point
        beta_stage += reduce;
        // Master: theta step + beta broadcast.
        let master_compute = prices.theta_step_k * k as f64;
        let bcast = collective::broadcast(&net, r + 1, k * 8)
            + self.collective_retry_cost(STAGE_BROADCAST, iteration, &mut recovery_t);
        Self::obs_collective(bcast);
        self.clocks.advance(0, master_compute + bcast);
        self.clocks.barrier(0.0);
        beta_stage += master_compute + bcast;
        self.trace.add(Phase::UpdateBetaTheta, beta_stage);

        if recovery_t > 0.0 {
            self.trace.add(Phase::Recovery, recovery_t);
        }
    }

    /// Charge each rank the read of the endpoint rows of its share of
    /// `pairs` (the batch's or the held-out pairs, whose `Edge` `edge`
    /// reads) and `price_k` per pair and community; the slowest rank's
    /// seconds.
    fn price_pair_shares<P>(&mut self, pairs: &[P], edge: fn(&P) -> Edge, price_k: f64) -> f64 {
        let (r, k) = (self.dcfg.workers, self.k);
        let mut slowest = 0.0f64;
        for w in 0..r {
            let ps = &pairs[share(pairs.len(), r, w)];
            self.keys.clear();
            self.keys.extend(ps.iter().map(edge).flat_map(|e| [e.lo().0, e.hi().0]));
            let wire = self.cost.read_cost(w, &self.keys);
            let compute = self.dcfg.node.worker_secs(price_k, ps.len() * k);
            self.clocks.advance(w + 1, wire + compute);
            slowest = slowest.max(wire + compute);
        }
        slowest
    }

    /// Charge a held-out perplexity evaluation over `pairs`.
    fn price_perplexity(&mut self, pairs: &[(Edge, bool)]) {
        let r = self.dcfg.workers;
        let price_k = NodeComputeModel::PRICES.perplexity_pair_k;
        let max_t = self.price_pair_shares(pairs, |&(e, _)| e, price_k);
        // The gather waits for the largest share; part 0 is one.
        let gather = collective::gather(&self.dcfg.net, r + 1, share(pairs.len(), r, 0).len() * 8);
        Self::obs_collective(gather);
        self.clocks.advance(0, gather);
        self.clocks.barrier(0.0);
        self.trace.add(Phase::Perplexity, max_t + gather);
    }

    /// Modeled seconds `rank`'s chunked read stage spends on transient
    /// DKV faults in `iteration`, at `per_chunk` seconds per clean chunk
    /// load.
    fn read_retry_cost(&self, rank: usize, iteration: u64, chunks: usize, per_chunk: f64) -> f64 {
        let mut extra = 0.0;
        for chunk in 0..chunks {
            let site = ((rank as u64) << 32) ^ (chunk as u64) ^ (iteration << 16);
            let retry =
                self.dkv_retry_cost(site, per_chunk, obs_id::C_DKV_READ_RETRIES, |attempt| {
                    self.plan.read_fault(rank, iteration, chunk, attempt)
                });
            extra += retry.unwrap_or_else(|spent| spent);
        }
        extra
    }
    /// The retry loop of every DKV operation: modeled recovery seconds of
    /// one operation whose clean attempt costs `healthy`, under the
    /// plan's `fault(attempt)` decisions. Each failed attempt is counted
    /// on the `retries` counter and re-issued after a backoff jittered at
    /// `site`; a slow attempt stretches the operation by the plan's
    /// factor. `Err` carries the seconds spent when every attempt the
    /// policy allows failed.
    fn dkv_retry_cost(
        &self,
        site: u64,
        healthy: f64,
        retries: usize,
        fault: impl Fn(u32) -> Option<DkvFault>,
    ) -> Result<f64, f64> {
        let mut extra = 0.0;
        for attempt in 0..=self.policy.max_retries {
            match fault(attempt) {
                Some(DkvFault::Fail) => {
                    mmsb_obs::counter_add(retries, 1);
                    extra += healthy + self.policy.backoff(&self.plan, site, attempt);
                }
                Some(DkvFault::Slow(factor)) => return Ok(extra + healthy * (factor - 1.0)),
                None => return Ok(extra),
            }
        }
        Err(extra)
    }

    /// Modeled extra seconds of the slowest link in a master-rooted
    /// collective of `iteration` under the plan's fabric faults. A dropped frame costs
    /// its link the stage timeout plus a backoff before the retransmit
    /// (which draws a fresh fate); a delayed frame costs its extra
    /// in-flight time; a duplicated frame is dropped free of charge by
    /// the receiver's de-duplication. Accumulates into `recovery_t`.
    fn collective_retry_cost(&self, stage: u64, iteration: u64, recovery_t: &mut f64) -> f64 {
        if self.dcfg.faults.is_none() {
            return 0.0;
        }
        let mut worst = 0.0f64;
        for w in 0..self.dcfg.workers {
            // One logical message per link per stage; retries fold into
            // the coordinate.
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
}

/// Mix three coordinates into one jitter-site hash.
fn site_hash(a: u64, b: u64, c: u64) -> u64 {
    a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.rotate_left(21) ^ c.rotate_left(42)
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

    /// `Checkpoint::install` and `ParallelSampler::restore` copy into
    /// the live `pi` plane — no second model is allocated, and every row
    /// keeps its cache-line alignment — for `K = 16` and `K = 64`.
    #[test]
    fn install_and_restore_keep_the_aligned_plane() {
        let (graph, heldout) = setup(21);
        for k in [16, 64] {
            let mut s = DistributedSampler::new(
                graph.clone(),
                heldout.clone(),
                SamplerConfig::new(k).with_seed(3),
                DistributedConfig::das5(2),
            )
            .unwrap();
            s.run(2);
            let ckpt = s.checkpoint();
            s.run(2);
            let plane = s.state().planes().0.as_ptr();
            let check = |s: &DistributedSampler, what: &str| {
                let pi = s.state().planes().0;
                assert_eq!(pi.as_ptr(), plane, "k={k}: {what} reallocated");
                assert_eq!(&pi[..], ckpt.pi(), "k={k}: {what}");
                for a in 0..s.state().n() {
                    let addr = s.state().pi_row(a).as_ptr() as usize;
                    assert_eq!(addr % 64, 0, "k={k}: {what}: row {a}");
                }
            };
            ckpt.install(&mut s.sampler.engine).unwrap();
            check(&s, "install");
            s.run(1);
            s.sampler.restore(&ckpt).unwrap();
            check(&s, "restore");
        }
    }

    /// A scheduled kill holds the records of the steps since its rollback
    /// point — the later of the run's start and the last multiple of the
    /// cadence at or before the kill — so never more than
    /// `min(cadence, kill - start)`; it holds none once the kill has
    /// fired, and a run without a kill holds none.
    #[test]
    fn held_records_are_bounded_by_the_rollback_interval() {
        let (g, h) = setup(12);
        let cfg = SamplerConfig::new(3).with_seed(6);
        let mut clean =
            DistributedSampler::new(g.clone(), h.clone(), cfg.clone(), DistributedConfig::das5(3))
                .unwrap();
        clean.run(5);
        let at_5 = clean.checkpoint();
        // (kill, cadence, start)
        for (kill, every, start) in [
            (7, None, 0),
            (7, Some(3), 0),
            (9, Some(3), 0),
            (2, Some(5), 0),
            (7, Some(4), 5),
            (7, None, 5),
        ] {
            let faults = FaultConfig::transient(2).with_kill(kill, 1);
            let dcfg = DistributedConfig::das5(3).with_faults(faults);
            let mut s = match start {
                0 => DistributedSampler::new(g.clone(), h.clone(), cfg.clone(), dcfg),
                _ => DistributedSampler::resume(g.clone(), h.clone(), cfg.clone(), dcfg, &at_5),
            }
            .unwrap();
            if let Some(every) = every {
                s = s.with_checkpoint_every(every);
            }
            let case = format!("kill {kill}, cadence {every:?}, start {start}");
            let bound = every.unwrap_or(u64::MAX).min(kill - start);
            let rollback = every.map_or(0, |e| kill / e * e).max(start);
            while s.iteration() < kill {
                s.step();
                assert!(s.held.len() as u64 <= bound, "{case}: {} held", s.held.len());
            }
            assert_eq!(s.held.len() as u64, kill - rollback, "{case}");
            s.run(3);
            assert_eq!(s.held.capacity(), 0, "{case}: records left after the kill");
            assert_eq!(s.lost_worker(), Some(1), "{case}");
        }
        let dcfg = DistributedConfig::das5(3).with_faults(FaultConfig::transient(2));
        let mut s = DistributedSampler::new(g, h, cfg, dcfg).unwrap().with_checkpoint_every(2);
        for _ in 0..6 {
            s.step();
            assert_eq!(s.held.capacity(), 0, "without a kill");
        }
    }

    /// The lockstep driver runs the pool driver's stages: after the same
    /// steps its checkpoint is the sequential chain's, byte for byte.
    #[test]
    fn matches_sequential_chain_closely() {
        let (g, h) = setup(1);
        let cfg = SamplerConfig::new(3).with_seed(7);
        let mut seq = ParallelSampler::with_threads(g.clone(), h.clone(), cfg.clone(), 1).unwrap();
        let mut dist = DistributedSampler::new(g, h, cfg, DistributedConfig::das5(4)).unwrap();
        seq.run(10);
        dist.run(10);
        assert!(seq.checkpoint().to_bytes() == dist.checkpoint().to_bytes());
    }

    #[test]
    fn worker_count_does_not_change_numerics() {
        let (g, h) = setup(2);
        let cfg = SamplerConfig::new(3).with_seed(3);
        let run = |workers| {
            let dcfg = DistributedConfig::das5(workers);
            let mut d = DistributedSampler::new(g.clone(), h.clone(), cfg.clone(), dcfg).unwrap();
            d.run(8);
            (d.evaluate_perplexity().to_bits(), d.checkpoint().to_bytes())
        };
        assert!(run(2) == run(8), "2 and 8 workers ran different chains");
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
        // Time: both runs are charged the same counted work, and
        // double buffering hides loads behind it, so the pipelined
        // makespan never exceeds the serial one (per rank, that is
        // `mmsb_dkv::pipeline`'s `schedule_bounds`). It neither adds nor
        // removes wire time, and only the pipelined run records the load
        // time it hid.
        assert!(
            double.virtual_time() <= single.virtual_time(),
            "double {} > single {}",
            double.virtual_time(),
            single.virtual_time()
        );
        let (s, d) = (single.report().phases, double.report().phases);
        assert_eq!(s.total(Phase::LoadPi), d.total(Phase::LoadPi));
        assert_eq!(s.total(Phase::UpdatePhi), d.total(Phase::UpdatePhi));
        assert_eq!(s.count(Phase::Prefetch), 0);
        assert_eq!(d.count(Phase::Prefetch), 6);
        assert!(d.total(Phase::Prefetch) > 0.0);
    }

    /// The virtual clock reads no clock: at pool sizes 1, 2 and 4 the
    /// same run — faults included — reports bit-identical virtual time
    /// and phase totals, and the same chain.
    #[test]
    fn virtual_time_is_independent_of_pool_size() {
        let (g, h) = setup(10);
        let cfg = SamplerConfig::new(8).with_seed(4);
        let dcfg = DistributedConfig::das5(5).with_faults(FaultConfig::transient(3));
        let runs: Vec<_> = [1, 2, 4]
            .into_iter()
            .map(|threads| {
                let mut d = DistributedSampler::with_threads(
                    g.clone().into(),
                    h.clone(),
                    cfg.clone(),
                    dcfg,
                    threads,
                )
                .unwrap();
                assert_eq!(d.sampler.threads(), threads);
                d.run(6);
                let perplexity = d.evaluate_perplexity();
                let pi = d.state().planes().0.to_vec();
                (
                    d.virtual_time().to_bits(),
                    d.report(),
                    perplexity.to_bits(),
                    pi,
                )
            })
            .collect();
        assert!(runs[0].1.phases.total(Phase::Recovery) > 0.0);
        for (threads, run) in [(2, &runs[1]), (4, &runs[2])] {
            assert_eq!(run.0, runs[0].0, "virtual time at {threads} threads");
            assert_eq!(run.1, runs[0].1, "report at {threads} threads");
            assert_eq!(run.2, runs[0].2, "perplexity at {threads} threads");
            assert!(run.3 == runs[0].3, "pi at {threads} threads");
        }
    }

    /// Held-out pairs split like the mini-batch (`share`), and the gather
    /// is priced at the largest share: with 80 pairs over 6 workers the
    /// shares are 14, 14, 13, 13, 13 and 13 (a `div_ceil` split would give
    /// 14 × 5 + 10), and the gather carries 14 probabilities per rank, not
    /// `80 / 6 = 13`.
    #[test]
    fn perplexity_gather_is_priced_at_the_largest_share() {
        let (g, h) = setup(11);
        let (r, k) = (6, 4);
        let total = h.len();
        assert_eq!((total, total % r), (80, 2));
        let mut d = DistributedSampler::new(
            g,
            h,
            SamplerConfig::new(k).with_seed(2),
            DistributedConfig::das5(r),
        )
        .unwrap();
        d.evaluate_perplexity();
        let charged = d.report().phases.total(Phase::Perplexity);

        let node = d.cluster.dcfg.node;
        let lens: Vec<usize> = (0..r).map(|w| share(total, r, w).len()).collect();
        assert_eq!(lens, [14, 14, 13, 13, 13, 13]);
        let slowest = (0..r)
            .map(|w| {
                let keys: Vec<u32> = d.sampler.engine.heldout.pairs()[share(total, r, w)]
                    .iter()
                    .flat_map(|&(e, _)| [e.lo().0, e.hi().0])
                    .collect();
                d.cluster.cost.read_cost(w, &keys)
                    + node.worker_secs(NodeComputeModel::PRICES.perplexity_pair_k, lens[w] * k)
            })
            .fold(0.0f64, f64::max);
        let gather = collective::gather(&d.cluster.dcfg.net, r + 1, 14 * 8);
        assert_eq!(charged, slowest + gather);
        assert!(gather > collective::gather(&d.cluster.dcfg.net, r + 1, 13 * 8));
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

    /// With a clean plan every DKV operation succeeds on its first
    /// attempt, and the retry loop charges nothing.
    #[test]
    fn clean_plan_charges_nothing() {
        let (g, h) = setup(7);
        let dcfg = DistributedConfig::das5(2).with_faults(FaultConfig::none(1));
        let s = DistributedSampler::new(g, h, SamplerConfig::new(3), dcfg).unwrap();
        for it in 0..64 {
            let read = s.cluster.dkv_retry_cost(it, 1e-3, obs_id::C_DKV_READ_RETRIES, |attempt| {
                s.cluster.plan.read_fault(1, it, 0, attempt)
            });
            let write = s.cluster.dkv_retry_cost(it, 1e-3, obs_id::C_DKV_WRITE_RETRIES, |attempt| {
                s.cluster.plan.write_fault(1, it, attempt)
            });
            assert_eq!((read, write), (Ok(0.0), Ok(0.0)), "iteration {it}");
        }
    }

    /// A failed attempt costs a re-issue plus its backoff, a slow one
    /// the extra wire time, and a budget spent on failures is an error
    /// carrying everything it cost.
    #[test]
    fn retry_loop_prices_failures_backoff_and_slowness() {
        let (g, h) = setup(8);
        let dcfg = DistributedConfig::das5(2).with_faults(FaultConfig::transient(3));
        let s = DistributedSampler::new(g, h, SamplerConfig::new(3), dcfg).unwrap();
        let (site, healthy) = (99, 1e-3);
        let backoff = |attempt| s.cluster.policy.backoff(&s.cluster.plan, site, attempt);
        let retries = obs_id::C_DKV_READ_RETRIES;
        let twice = s.cluster.dkv_retry_cost(site, healthy, retries, |attempt| {
            (attempt < 2).then_some(DkvFault::Fail)
        });
        assert_eq!(twice, Ok((healthy + backoff(0)) + (healthy + backoff(1))));
        let slow = s.cluster.dkv_retry_cost(site, healthy, retries, |_| Some(DkvFault::Slow(4.0)));
        assert_eq!(slow, Ok(healthy * 3.0));
        let spent = (0..=s.cluster.policy.max_retries).fold(0.0, |t, a| t + (healthy + backoff(a)));
        let never = s.cluster.dkv_retry_cost(site, healthy, retries, |_| Some(DkvFault::Fail));
        assert_eq!(never, Err(spent));
    }

    /// A write that fails on every attempt the policy allows stops the
    /// run.
    #[test]
    #[should_panic(expected = "retry budget covers transient write faults")]
    fn certain_failure_exhausts_retries() {
        let (g, h) = setup(9);
        let mut faults = FaultConfig::none(3);
        faults.write_fail = 1.0;
        let dcfg = DistributedConfig::das5(2).with_faults(faults);
        let mut s = DistributedSampler::new(g, h, SamplerConfig::new(3), dcfg).unwrap();
        s.step();
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
        // The strong-scaling sanity check behind Figure 1: with the same
        // chain split over 8 workers instead of 2, the whole makespan
        // shrinks.
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
        let (t2, t8) = (d2.virtual_time(), d8.virtual_time());
        assert!(t8 < t2, "makespan: 8 workers {t8} vs 2 workers {t2}");
    }
}
