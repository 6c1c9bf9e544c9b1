//! The node-level parallel driver (the paper's OpenMP layer).
//!
//! `update_phi` is data-parallel over mini-batch vertices and the held-out
//! perplexity is data-parallel over pairs; both fan out over the
//! from-scratch `mmsb-pool` fork-join pool. Every random draw is keyed by
//! `(seed, iteration, vertex)`, chunk boundaries are fixed, and the theta
//! reduction is a fixed binary tree over chunk partials — so the chain is
//! **bitwise identical** regardless of the number of threads or the
//! scheduler — the property the equivalence tests pin down. At one thread
//! every chunk runs inline on the caller in chunk order: that is the
//! sequential reference (Algorithm 1 verbatim) every other driver is
//! tested against.

use super::driver::{self, StepBuffers};
use super::Engine;
use crate::communities::Communities;
use crate::config::SamplerConfig;
use crate::workspace::Workspace;
use crate::{CoreError, ModelState};
use mmsb_graph::heldout::HeldOut;
use mmsb_graph::Graph;
use mmsb_ooc::GraphBackend;
use mmsb_pool::ThreadPool;

/// SG-MCMC sampler over an `mmsb-pool` of any size, one thread included.
pub struct ParallelSampler {
    engine: Engine,
    pool: ThreadPool,
    workspaces: Vec<Workspace>,
    bufs: StepBuffers,
}

impl ParallelSampler {
    /// Build a sampler over a training graph and held-out set, using one
    /// pool thread per available CPU.
    pub fn new(graph: Graph, heldout: HeldOut, config: SamplerConfig) -> Result<Self, CoreError> {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_threads(graph, heldout, config, threads)
    }

    /// Build a sampler with an explicit pool size. `threads == 1` degrades
    /// to inline execution (no worker threads are spawned) and produces the
    /// same chain as any other pool size.
    pub fn with_threads(
        graph: Graph,
        heldout: HeldOut,
        config: SamplerConfig,
        threads: usize,
    ) -> Result<Self, CoreError> {
        Self::with_backend_threads(graph.into(), heldout, config, threads)
    }

    /// Build a sampler over either graph backend (resident CSR or the
    /// out-of-core block-cached format) with an explicit pool size. Each
    /// worker owns its own block cache; cache state is pure scratch, so
    /// the chain is bitwise identical across backends, cache sizes, and
    /// thread counts.
    pub fn with_backend_threads(
        graph: GraphBackend,
        heldout: HeldOut,
        config: SamplerConfig,
        threads: usize,
    ) -> Result<Self, CoreError> {
        if threads == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "thread count must be at least 1".into(),
            });
        }
        let engine = Engine::with_backend(graph, heldout, config)?;
        let bufs = StepBuffers::new(&engine);
        let workspaces = (0..threads)
            .map(|w| {
                let cache = engine.graph.new_cache(
                    engine.config.graph_cache_blocks,
                    engine.config.seed ^ (w as u64 + 1),
                );
                Workspace::new(engine.config.k, engine.config.neighbor_sample, cache)
            })
            .collect();
        Ok(Self {
            engine,
            pool: ThreadPool::new(threads),
            workspaces,
            bufs,
        })
    }

    /// The pool size this sampler fans out over.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Run one full iteration.
    pub fn step(&mut self) {
        driver::step(
            &mut self.engine,
            &self.pool,
            &mut self.workspaces,
            &mut self.bufs,
        );
    }

    /// Run `iterations` steps.
    pub fn run(&mut self, iterations: u64) {
        for _ in 0..iterations {
            self.step();
        }
    }

    /// Evaluate held-out perplexity (parallel over fixed-boundary chunks
    /// writing disjoint ranges of one flat buffer — deterministic).
    pub fn evaluate_perplexity(&mut self) -> f64 {
        driver::evaluate_perplexity(
            &mut self.engine,
            &self.pool,
            &mut self.workspaces,
            &mut self.bufs,
        )
    }

    /// Advance to a new training snapshot (same vertex set, evolved edge
    /// set) without discarding the learned state — streaming-data usage.
    pub fn advance_to_snapshot(
        &mut self,
        graph: Graph,
        heldout: HeldOut,
    ) -> Result<(), CoreError> {
        self.engine.replace_graph(graph, heldout)
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

    /// The sampler's configuration.
    pub fn config(&self) -> &SamplerConfig {
        &self.engine.config
    }

    /// Capture the full chain state as a restorable, servable
    /// [`crate::Checkpoint`] (the PR 4 format v1 artifact).
    pub fn checkpoint(&self) -> crate::Checkpoint {
        crate::Checkpoint::capture(&self.engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};
    use mmsb_rand::Xoshiro256PlusPlus;

    fn setup(seed: u64) -> (Graph, HeldOut) {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let gen = generate_planted(
            &PlantedConfig {
                num_vertices: 150,
                num_communities: 3,
                mean_community_size: 55.0,
                memberships_per_vertex: 1.1,
                internal_degree: 9.0,
                background_degree: 0.5,
            },
            &mut rng,
        );
        HeldOut::split(&gen.graph, 50, &mut rng)
    }

    #[test]
    fn matches_sequential_chain_bitwise() {
        let (g, h) = setup(1);
        let cfg = SamplerConfig::new(3).with_seed(9);
        let mut seq = ParallelSampler::with_threads(g.clone(), h.clone(), cfg.clone(), 1).unwrap();
        seq.run(12);
        for threads in [2, 4] {
            let mut par =
                ParallelSampler::with_threads(g.clone(), h.clone(), cfg.clone(), threads).unwrap();
            par.run(12);
            assert_eq!(seq.state().theta(), par.state().theta(), "{threads} threads");
            for a in 0..seq.state().n() {
                assert_eq!(
                    seq.state().pi_row(a),
                    par.state().pi_row(a),
                    "{threads} threads, vertex {a}"
                );
            }
        }
    }

    #[test]
    fn perplexity_matches_sequential() {
        let (g, h) = setup(2);
        let cfg = SamplerConfig::new(3).with_seed(4);
        let mut seq = ParallelSampler::with_threads(g.clone(), h.clone(), cfg.clone(), 1).unwrap();
        let mut par = ParallelSampler::with_threads(g, h, cfg, 4).unwrap();
        seq.run(5);
        par.run(5);
        let ps = seq.evaluate_perplexity();
        let pp = par.evaluate_perplexity();
        assert_eq!(ps, pp, "perplexity diverged: {ps} vs {pp}");
    }

    #[test]
    fn runs_and_extracts_communities() {
        let (g, h) = setup(3);
        let mut s = ParallelSampler::new(g, h, SamplerConfig::new(3).with_seed(5)).unwrap();
        s.run(30);
        assert_eq!(s.iteration(), 30);
        assert_eq!(s.communities(0.3).num_communities(), 3);
        assert_eq!(s.config().k, 3);
    }
}
