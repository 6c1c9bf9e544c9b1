//! The distributed master–worker driver (paper §III), in lockstep
//! simulation: a [`ParallelSampler`] plus a [`ClusterModel`]. Each step
//! runs the pool driver's own step, which also records its batch and DKV
//! keys ([`StepRecord`]), and [`ClusterModel::price`] — in `mmsb-netsim`,
//! which depends on neither the sampler, the pool nor the graph file —
//! then charges what each rank of the paper's cluster would do with that
//! record and the batch's degrees (DESIGN.md §3/§7). The chain is the
//! pool driver's, bit for bit, at every worker count, in both pipeline
//! modes, under every fault schedule and across a worker loss, which
//! re-prices the steps since the rollback point at `R - 1` workers.

use super::parallel::ParallelSampler;
use crate::checkpoint::Checkpoint;
use crate::communities::Communities;
use crate::config::SamplerConfig;
use crate::{CoreError, ModelState};
use mmsb_graph::heldout::HeldOut;
use mmsb_graph::{Graph, VertexId};
use mmsb_netsim::{ClusterModel, DistributedConfig, StepRecord, TraceReport};
use mmsb_ooc::GraphBackend;
use std::ops::Range;

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

impl DistributedSampler {
    /// Build a distributed sampler.
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
        dcfg.validate()
            .map_err(|reason| CoreError::InvalidConfig { reason })?;
        let sampler = ParallelSampler::with_backend_threads(graph, heldout, config, threads)?;
        let engine = &sampler.engine;
        let (vertices, pairs) = (engine.max_batch_vertices(), engine.max_batch_pairs());
        Ok(Self {
            cluster: ClusterModel::new(dcfg, engine.graph.num_vertices(), engine.config.k),
            record: StepRecord::with_capacity(vertices, pairs, engine.config.neighbor_sample),
            held: Vec::new(),
            reprice: dcfg
                .faults
                .and_then(|f| f.kill_worker)
                .map_or(0..0, |(kill, _)| 0..kill),
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
        self.cluster.workers()
    }

    /// The worker permanently lost to a kill fault, if any.
    pub fn lost_worker(&self) -> Option<usize> {
        self.lost_worker
    }

    /// Run one full iteration: absorb a worker loss due now, run the pool
    /// driver's step (recording it), then price it.
    ///
    /// # Panics
    /// Panics if an out-of-core block read fails;
    /// [`DistributedSampler::try_step`] returns the error instead.
    pub fn step(&mut self) {
        if let Err(e) = self.try_step() {
            panic!("{e}");
        }
    }

    /// [`DistributedSampler::step`], or the out-of-core read error
    /// ([`CoreError::Graph`]) that stopped the pool driver's step before
    /// it changed any state (see [`ParallelSampler::try_step`]). A failed
    /// step touches no price: it is neither priced nor held, a worker
    /// loss due at it is not absorbed, and the virtual time stays put.
    pub fn try_step(&mut self) -> Result<(), CoreError> {
        let iteration = self.sampler.iteration();
        self.sampler.try_step_recording(Some(&mut self.record))?;
        // Permanent worker loss fires at the start of its iteration: the
        // master detects the dead rank and re-partitions over the
        // survivors before drawing anything, so the step is priced at
        // `R - 1`. (The worker count never changes what the step
        // computes, so the pool driver may run it first.)
        if self.lost_worker.is_none() {
            if let Some(dead) = self.cluster.kill_at(iteration) {
                self.degrade(dead);
            }
        }
        self.cluster
            .price(&self.record, degrees(&self.sampler.engine.graph));
        if self.reprice.contains(&iteration) {
            self.held.push(self.record.clone());
        }
        Ok(())
    }

    /// Run `iterations` more iterations.
    ///
    /// # Panics
    /// As [`DistributedSampler::step`].
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
        self.lost_worker = Some(dead);
        let graph = &self.sampler.engine.graph;
        self.cluster.lose_worker(graph.num_vertices());
        for record in &self.held {
            self.cluster.price(record, degrees(graph));
        }
        self.held = Vec::new();
    }

    /// Distributed held-out perplexity: the pool driver's
    /// [`ParallelSampler::evaluate_perplexity`], priced as the paper's
    /// cluster runs it ([`ClusterModel::price_perplexity`]). (The paper
    /// reduces partial log-sums; the gather of the per-pair probabilities
    /// is priced instead, matching the averaging the chain performs.)
    pub fn evaluate_perplexity(&mut self) -> f64 {
        let pairs = self.sampler.engine.heldout.pairs();
        self.cluster
            .price_perplexity(pairs, |&(e, _)| [e.lo().0, e.hi().0]);
        self.sampler.evaluate_perplexity()
    }

    /// The virtual (modeled cluster) time elapsed so far, in seconds.
    pub fn virtual_time(&self) -> f64 {
        self.cluster.virtual_time()
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
        self.cluster.report(self.sampler.iteration())
    }
}

/// The degree of each vertex of `graph`, as the price reads them.
fn degrees(graph: &GraphBackend) -> impl Fn(u32) -> usize + '_ {
    |a| graph.degree(VertexId(a)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParallelSampler;
    use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};
    use mmsb_netsim::dkv::{CostModel, Partition, PipelineMode};
    use mmsb_netsim::{collective, share, FaultConfig, NodeComputeModel, Phase};
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
        let mut clean = DistributedSampler::new(
            g.clone(),
            h.clone(),
            cfg.clone(),
            DistributedConfig::das5(3),
        )
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
                assert!(
                    s.held.len() as u64 <= bound,
                    "{case}: {} held",
                    s.held.len()
                );
            }
            assert_eq!(s.held.len() as u64, kill - rollback, "{case}");
            s.run(3);
            assert_eq!(s.held.capacity(), 0, "{case}: records left after the kill");
            assert_eq!(s.lost_worker(), Some(1), "{case}");
        }
        let dcfg = DistributedConfig::das5(3).with_faults(FaultConfig::transient(2));
        let mut s = DistributedSampler::new(g, h, cfg, dcfg)
            .unwrap()
            .with_checkpoint_every(2);
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
        // `mmsb_netsim::dkv::price`'s `schedule_bounds`). It neither adds nor
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
        let (r, k, g_n) = (6, 4, g.num_vertices());
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

        let dcfg = DistributedConfig::das5(r);
        let cost = CostModel::new(Partition::new(g_n, r), k + 1, dcfg.net);
        let lens: Vec<usize> = (0..r).map(|w| share(total, r, w).len()).collect();
        assert_eq!(lens, [14, 14, 13, 13, 13, 13]);
        let slowest = (0..r)
            .map(|w| {
                let keys: Vec<u32> = d.sampler.engine.heldout.pairs()[share(total, r, w)]
                    .iter()
                    .flat_map(|&(e, _)| [e.lo().0, e.hi().0])
                    .collect();
                cost.read_cost(w, &keys)
                    + dcfg
                        .node
                        .worker_secs(NodeComputeModel::PRICES.perplexity_pair_k, lens[w] * k)
            })
            .fold(0.0f64, f64::max);
        let gather = collective::gather(&dcfg.net, r + 1, 14 * 8);
        assert_eq!(charged, slowest + gather);
        assert!(gather > collective::gather(&dcfg.net, r + 1, 13 * 8));
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
        let mut d2 = DistributedSampler::new(
            g.clone(),
            h.clone(),
            cfg.clone(),
            DistributedConfig::das5(2),
        )
        .unwrap();
        let mut d8 = DistributedSampler::new(g, h, cfg, DistributedConfig::das5(8)).unwrap();
        d2.run(6);
        d8.run(6);
        let (t2, t8) = (d2.virtual_time(), d8.virtual_time());
        assert!(t8 < t2, "makespan: 8 workers {t8} vs 2 workers {t2}");
    }
}
