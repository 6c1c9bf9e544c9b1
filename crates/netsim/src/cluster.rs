//! The paper's cluster as a price (paper §III): what a recorded step
//! costs the master and each of `R` workers.
//!
//! [`ClusterModel::price`] reads a [`StepRecord`] — the step's batch and
//! every batch vertex's DKV keys — and the batch's degrees, and charges
//! each rank's share to its [`ClusterClocks`] entry: counted work at
//! [`NodeComputeModel::PRICES`], network and DKV time from
//! [`NetworkModel`] and [`CostModel`], the `pi` load through
//! [`dkv::price`] under the configured [`PipelineMode`]. It computes
//! nothing and reads no clock, so the virtual time is a function of the
//! configuration and the records alone (DESIGN.md §7).

use crate::compute_model::NodeComputeModel;
use crate::dkv::{self, CostModel, OpObs, Partition, PipelineMode};
use crate::{
    collective, ClusterClocks, DkvFault, FaultConfig, FaultPlan, MsgFault, NetworkModel, Phase,
    PhaseTimes, RecoveryPolicy, TraceReport,
};
use mmsb_obs::id as obs_id;
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

    /// Why this configuration prices no cluster, if it does not: no
    /// worker, an empty chunk, or a kill of a rank that does not exist
    /// or of the only one.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("distributed sampler needs at least one worker".into());
        }
        if self.chunk_vertices == 0 {
            return Err("chunk_vertices must be positive".into());
        }
        if let Some((_, rank)) = self.faults.and_then(|f| f.kill_worker) {
            if rank >= self.workers {
                return Err(format!(
                    "kill_worker rank {rank} out of range for {} workers",
                    self.workers
                ));
            }
            if self.workers < 2 {
                return Err("cannot lose the only worker".into());
            }
        }
        Ok(())
    }
}

/// Part `p` of an even contiguous split of `len` items into `parts`
/// (the first `len % parts` parts get one extra item): rank `p`'s share
/// of a batch's vertices, of its pairs and of the held-out pairs.
pub fn share(len: usize, parts: usize, p: usize) -> Range<usize> {
    let base = len / parts;
    let extra = len % parts;
    let lo = p * base + p.min(extra);
    lo..lo + base + usize::from(p < extra)
}

/// One step as the cluster prices it: its iteration, batch and every
/// batch vertex's DKV keys (own row, then sampled neighbors'), vertex
/// `i`'s in the `stride` slots from `i * stride`, the first its key
/// count. Reserved for the largest batch up front, so it is rewritten in
/// place; a clone holds only its own batch.
#[derive(Clone)]
pub struct StepRecord {
    /// The iteration the step ran.
    pub(crate) iteration: u64,
    /// The batch's distinct vertices, in the order their keys are
    /// recorded.
    pub(crate) vertices: Vec<u32>,
    /// The batch's pairs, as their two endpoints.
    pub(crate) pairs: Vec<[u32; 2]>,
    slots: Vec<u32>,
    /// `neighbor_sample + 2`: the count, the vertex, its neighbors.
    stride: usize,
}

impl StepRecord {
    /// A record for batches of up to `vertices` vertices and `pairs`
    /// pairs, each vertex with up to `neighbor_sample` sampled neighbors.
    pub fn with_capacity(vertices: usize, pairs: usize, neighbor_sample: usize) -> Self {
        let stride = neighbor_sample + 2;
        Self {
            iteration: 0,
            vertices: Vec::with_capacity(vertices),
            pairs: Vec::with_capacity(pairs),
            slots: Vec::with_capacity(vertices * stride),
            stride,
        }
    }

    /// Take `vertices` and `pairs` as iteration `iteration`'s batch; the
    /// stride and the key slots of the batch's vertices, for the step to
    /// fill.
    pub fn begin(
        &mut self,
        iteration: u64,
        vertices: impl Iterator<Item = u32>,
        pairs: impl Iterator<Item = [u32; 2]>,
    ) -> (usize, &mut [u32]) {
        self.iteration = iteration;
        self.vertices.clear();
        self.vertices.extend(vertices);
        self.pairs.clear();
        self.pairs.extend(pairs);
        self.slots.resize(self.vertices.len() * self.stride, 0);
        (self.stride, &mut self.slots)
    }

    /// Batch vertex `i`'s keys, as the step recorded them.
    pub fn keys(&self, i: usize) -> &[u32] {
        let slot = &self.slots[i * self.stride..(i + 1) * self.stride];
        &slot[1..=slot[0] as usize]
    }
}

/// The paper's cluster as a price: what a recorded step costs each rank,
/// charged to the ranks' clocks and the phase times. It reads a
/// [`StepRecord`] and the degrees of the batch's vertices, never the
/// chain.
pub struct ClusterModel {
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

impl ClusterModel {
    /// A healthy cluster of `dcfg.workers` workers over `n` vertices of
    /// `k` communities, every clock at zero.
    pub fn new(dcfg: DistributedConfig, n: u32, k: usize) -> Self {
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

    /// Number of worker ranks (fewer by one after a worker loss).
    pub fn workers(&self) -> usize {
        self.dcfg.workers
    }

    /// The worker the fault schedule kills at the start of `iteration`,
    /// if any.
    pub fn kill_at(&self, iteration: u64) -> Option<usize> {
        self.plan.kill_at(iteration)
    }

    /// The virtual (modeled cluster) time elapsed so far, in seconds.
    pub fn virtual_time(&self) -> f64 {
        self.clocks.max()
    }

    /// The timing report over everything priced so far, `iterations`
    /// steps of it (Figure 1 / Table III rows).
    pub fn report(&self, iterations: u64) -> TraceReport {
        TraceReport {
            phases: self.trace.clone(),
            iterations,
            total_seconds: self.clocks.max(),
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
    pub fn lose_worker(&mut self, n: u32) {
        mmsb_obs::counter_add(obs_id::C_RECOVERIES, 1);
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
    /// pairs; `degree` gives the length of each adjacency row it is sent.
    pub fn price(&mut self, step: &StepRecord, degree: impl Fn(u32) -> usize) {
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
                let adjacency: usize = vs.iter().map(|&a| degree(a) * 4).sum();
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
            let run = dkv::price(
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
            self.keys.extend_from_slice(&step.vertices[vs]);
            let wire = self.cost.write_cost(w, &self.keys);
            OpObs::priced_write(&self.keys, wire);
            // A failed write is re-issued whole (writes are idempotent row
            // overwrites); only its modeled time is paid, its backoff
            // jittered at a site mixed from its rank and iteration.
            let site = (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ u64::MAX.rotate_left(21)
                ^ iteration.rotate_left(42);
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
        let mut beta_stage = self.price_pair_shares(&step.pairs, |&p| p, prices.theta_pair_k);
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
    /// `pairs` (the batch's or the held-out pairs, whose endpoints
    /// `endpoints` reads) and `price_k` per pair and community; the
    /// slowest rank's seconds.
    fn price_pair_shares<P>(
        &mut self,
        pairs: &[P],
        endpoints: fn(&P) -> [u32; 2],
        price_k: f64,
    ) -> f64 {
        let (r, k) = (self.dcfg.workers, self.k);
        let mut slowest = 0.0f64;
        for w in 0..r {
            let ps = &pairs[share(pairs.len(), r, w)];
            self.keys.clear();
            self.keys.extend(ps.iter().flat_map(endpoints));
            let wire = self.cost.read_cost(w, &self.keys);
            let compute = self.dcfg.node.worker_secs(price_k, ps.len() * k);
            self.clocks.advance(w + 1, wire + compute);
            slowest = slowest.max(wire + compute);
        }
        slowest
    }

    /// Charge a held-out perplexity evaluation over `pairs`, whose
    /// endpoints `endpoints` reads: each worker loads the `pi` rows of
    /// its [`share`] of them (the mini-batch's split) and computes their
    /// probabilities, and the master gathers the probabilities.
    pub fn price_perplexity<P>(&mut self, pairs: &[P], endpoints: fn(&P) -> [u32; 2]) {
        let r = self.dcfg.workers;
        let price_k = NodeComputeModel::PRICES.perplexity_pair_k;
        let max_t = self.price_pair_shares(pairs, endpoints, price_k);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(faults: FaultConfig) -> ClusterModel {
        ClusterModel::new(DistributedConfig::das5(2).with_faults(faults), 120, 3)
    }

    /// With a clean plan every DKV operation succeeds on its first
    /// attempt, and the retry loop charges nothing.
    #[test]
    fn clean_plan_charges_nothing() {
        let c = cluster(FaultConfig::none(1));
        for it in 0..64 {
            let read = c.dkv_retry_cost(it, 1e-3, obs_id::C_DKV_READ_RETRIES, |attempt| {
                c.plan.read_fault(1, it, 0, attempt)
            });
            let write = c.dkv_retry_cost(it, 1e-3, obs_id::C_DKV_WRITE_RETRIES, |attempt| {
                c.plan.write_fault(1, it, attempt)
            });
            assert_eq!((read, write), (Ok(0.0), Ok(0.0)), "iteration {it}");
        }
    }

    /// A failed attempt costs a re-issue plus its backoff, a slow one
    /// the extra wire time, and a budget spent on failures is an error
    /// carrying everything it cost.
    #[test]
    fn retry_loop_prices_failures_backoff_and_slowness() {
        let c = cluster(FaultConfig::transient(3));
        let (site, healthy) = (99, 1e-3);
        let backoff = |attempt| c.policy.backoff(&c.plan, site, attempt);
        let retries = obs_id::C_DKV_READ_RETRIES;
        let twice = c.dkv_retry_cost(site, healthy, retries, |attempt| {
            (attempt < 2).then_some(DkvFault::Fail)
        });
        assert_eq!(twice, Ok((healthy + backoff(0)) + (healthy + backoff(1))));
        let slow = c.dkv_retry_cost(site, healthy, retries, |_| Some(DkvFault::Slow(4.0)));
        assert_eq!(slow, Ok(healthy * 3.0));
        let spent = (0..=c.policy.max_retries).fold(0.0, |t, a| t + (healthy + backoff(a)));
        let never = c.dkv_retry_cost(site, healthy, retries, |_| Some(DkvFault::Fail));
        assert_eq!(never, Err(spent));
    }
}
