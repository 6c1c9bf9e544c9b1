//! Cross-driver chain equivalence: the paper's parallelization must not
//! change the algorithm. The pool driver at one thread is the sequential
//! reference; more threads and the lockstep distributed driver at any
//! worker count must match it bitwise.

use mmsb::prelude::*;

fn setup(seed: u64) -> (Graph, HeldOut, GroundTruth) {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let generated = generate_planted(
        &PlantedConfig {
            num_vertices: 250,
            num_communities: 5,
            mean_community_size: 55.0,
            memberships_per_vertex: 1.1,
            internal_degree: 10.0,
            background_degree: 0.5,
        },
        &mut rng,
    );
    let (train, heldout) = HeldOut::split(&generated.graph, 80, &mut rng);
    (train, heldout, generated.ground_truth)
}

fn config() -> SamplerConfig {
    SamplerConfig::new(5)
        .with_seed(41)
        .with_minibatch(Strategy::StratifiedNode {
            partitions: 8,
            anchors: 8,
        })
}

#[test]
fn parallel_equals_sequential_bitwise() {
    let (g, h, _) = setup(1);
    let mut seq = ParallelSampler::with_threads(g.clone(), h.clone(), config(), 1).unwrap();
    let mut par = ParallelSampler::with_threads(g, h, config(), 4).unwrap();
    for round in 0..4 {
        seq.run(10);
        par.run(10);
        assert_eq!(
            seq.state().theta(),
            par.state().theta(),
            "theta diverged at round {round}"
        );
        for a in 0..seq.state().n() {
            assert_eq!(
                seq.state().pi_row(a),
                par.state().pi_row(a),
                "pi diverged at round {round}, vertex {a}"
            );
        }
        assert_eq!(seq.evaluate_perplexity(), par.evaluate_perplexity());
    }
}

/// `pi` and `theta` (inside the checkpoint bytes) match bitwise: both
/// drivers sum the theta gradient over the same chunks with the same tree.
#[test]
fn distributed_matches_sequential_pi_bitwise() {
    let (g, h, _) = setup(2);
    let mut seq = ParallelSampler::with_threads(g.clone(), h.clone(), config(), 1).unwrap();
    let mut dist = DistributedSampler::new(g, h, config(), DistributedConfig::das5(5)).unwrap();
    seq.run(25);
    dist.run(25);
    assert!(seq.checkpoint().to_bytes() == dist.checkpoint().to_bytes());
}

/// The tolerance is zero: both drivers run one held-out stage.
#[test]
fn distributed_perplexity_matches_sequential_within_tolerance() {
    let (g, h, _) = setup(3);
    let mut seq = ParallelSampler::with_threads(g.clone(), h.clone(), config(), 1).unwrap();
    let mut dist = DistributedSampler::new(g, h, config(), DistributedConfig::das5(3)).unwrap();
    seq.run(12);
    dist.run(12);
    let (ps, pd) = (seq.evaluate_perplexity(), dist.evaluate_perplexity());
    assert_eq!(
        ps.to_bits(),
        pd.to_bits(),
        "perplexity diverged: {ps} vs {pd}"
    );
}

/// The chain after `STEPS` iterations and one perplexity evaluation:
/// the checkpoint bytes (state, theta, RNG streams, perplexity average)
/// and the perplexity's bits.
fn chain(perplexity: f64, ckpt: Checkpoint) -> (Vec<u8>, u64) {
    (ckpt.to_bytes(), perplexity.to_bits())
}

const STEPS: u64 = 25;

/// One chain across both drivers: the pool driver at 1 and 2 threads and
/// the lockstep driver at 1, 3 and 8 workers under both pipeline modes,
/// for a batch of one theta chunk and for one of three.
#[test]
fn one_chain_across_drivers_worker_counts_and_pipeline_modes() {
    let (g, h, _) = setup(2);
    let wide = config().with_minibatch(Strategy::RandomPair { size: 2500 });
    for cfg in [config(), wide] {
        let pool = |threads| {
            let mut s =
                ParallelSampler::with_threads(g.clone(), h.clone(), cfg.clone(), threads).unwrap();
            s.run(STEPS);
            chain(s.evaluate_perplexity(), s.checkpoint())
        };
        let reference = pool(1);
        assert!(
            pool(2) == reference,
            "pool driver at 2 threads, {:?}",
            cfg.minibatch
        );
        for mode in [PipelineMode::Single, PipelineMode::Double] {
            for workers in [1, 3, 8] {
                let dcfg = DistributedConfig::das5(workers).with_pipeline(mode);
                let mut d =
                    DistributedSampler::new(g.clone(), h.clone(), cfg.clone(), dcfg).unwrap();
                d.run(STEPS);
                assert!(
                    chain(d.evaluate_perplexity(), d.checkpoint()) == reference,
                    "lockstep driver at {workers} workers, {mode:?}, {:?}",
                    cfg.minibatch
                );
            }
        }
    }
}

#[test]
fn pipelining_and_chunking_do_not_change_the_chain() {
    let (g, h, _) = setup(4);
    let mut runs = Vec::new();
    for (mode, chunk) in [
        (PipelineMode::Single, 4),
        (PipelineMode::Double, 4),
        (PipelineMode::Double, 64),
    ] {
        let mut dcfg = DistributedConfig::das5(4).with_pipeline(mode);
        dcfg.chunk_vertices = chunk;
        let mut d = DistributedSampler::new(g.clone(), h.clone(), config(), dcfg).unwrap();
        d.run(10);
        let pis: Vec<f32> = (0..d.state().n())
            .flat_map(|a| d.state().pi_row(a).to_vec())
            .collect();
        runs.push(pis);
    }
    assert_eq!(runs[0], runs[1], "pipelining changed numerics");
    assert_eq!(runs[0], runs[2], "chunk size changed numerics");
}
