//! Cross-driver chain equivalence: the paper's parallelization must not
//! change the algorithm. The pool driver at one thread is the sequential
//! reference; more threads must match bitwise, distributed up to the
//! reduction association order.

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
    SamplerConfig::new(5).with_seed(41).with_minibatch(Strategy::StratifiedNode {
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

#[test]
fn distributed_matches_sequential_pi_bitwise() {
    let (g, h, _) = setup(2);
    let mut seq = ParallelSampler::with_threads(g.clone(), h.clone(), config(), 1).unwrap();
    let mut dist =
        DistributedSampler::new(g, h, config(), DistributedConfig::das5(5)).unwrap();
    seq.run(25);
    dist.run(25);
    for a in 0..seq.state().n() {
        assert_eq!(seq.state().pi_row(a), dist.state().pi_row(a), "vertex {a}");
    }
    for (s, d) in seq.state().theta().iter().zip(dist.state().theta()) {
        assert!(
            (s - d).abs() / s.abs().max(1e-12) < 1e-6,
            "theta diverged beyond reduction tolerance: {s} vs {d}"
        );
    }
}

#[test]
fn distributed_perplexity_matches_sequential_within_tolerance() {
    let (g, h, _) = setup(3);
    let mut seq = ParallelSampler::with_threads(g.clone(), h.clone(), config(), 1).unwrap();
    let mut dist =
        DistributedSampler::new(g, h, config(), DistributedConfig::das5(3)).unwrap();
    seq.run(12);
    dist.run(12);
    let ps = seq.evaluate_perplexity();
    let pd = dist.evaluate_perplexity();
    assert!(
        (ps - pd).abs() / ps < 1e-6,
        "perplexity diverged: {ps} vs {pd}"
    );
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

#[test]
fn full_phi_layout_tracks_pisum_layout_loosely() {
    // The layouts round state differently (f32 vs f64), so chains diverge
    // slowly; over a short horizon they must stay close.
    let (g, h, _) = setup(5);
    let slim = config();
    let fat = config().with_layout(StateLayout::FullPhi);
    let mut a = ParallelSampler::with_threads(g.clone(), h.clone(), slim, 1).unwrap();
    let mut b = ParallelSampler::with_threads(g, h, fat, 1).unwrap();
    a.run(5);
    b.run(5);
    let pa = a.evaluate_perplexity();
    let pb = b.evaluate_perplexity();
    assert!(
        (pa - pb).abs() / pa < 1e-2,
        "layouts diverged too fast: {pa} vs {pb}"
    );
}
