//! Pins the deterministic theta reduction: a mini-batch large enough to
//! span several theta chunks (chunk size 1024 pairs) forces the drivers
//! through the fixed binary combining tree, and the result must be
//! bitwise identical to the sequential sampler for every pool size —
//! the tree shape depends only on the chunk count, never on which
//! worker finished first.

use mmsb_core::{ParallelSampler, SamplerConfig};
use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};
use mmsb_graph::heldout::HeldOut;
use mmsb_graph::minibatch::Strategy;
use mmsb_graph::Graph;
use mmsb_rand::Xoshiro256PlusPlus;

fn setup() -> (Graph, HeldOut, SamplerConfig) {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(31);
    let gen = generate_planted(
        &PlantedConfig {
            num_vertices: 200,
            num_communities: 4,
            mean_community_size: 55.0,
            memberships_per_vertex: 1.1,
            internal_degree: 9.0,
            background_degree: 0.5,
        },
        &mut rng,
    );
    let (graph, heldout) = HeldOut::split(&gen.graph, 50, &mut rng);
    // 2500 pairs per batch -> 3 theta chunks of <= 1024 pairs, so the
    // binary tree actually combines partials ((0+1)+2) instead of
    // degenerating to the identity.
    let config = SamplerConfig::new(4)
        .with_seed(17)
        .with_minibatch(Strategy::RandomPair { size: 2500 });
    (graph, heldout, config)
}

#[test]
fn tree_reduced_theta_matches_sequential_for_any_pool_size() {
    let (graph, heldout, config) = setup();
    for threads in [1usize, 2, 7] {
        // Rebuilt per pool size: perplexity evaluation accumulates
        // posterior samples, so the reference must have recorded exactly
        // as many as the sampler it is compared against.
        let mut seq =
            ParallelSampler::with_threads(graph.clone(), heldout.clone(), config.clone(), 1)
                .unwrap();
        seq.run(6);
        let mut par =
            ParallelSampler::with_threads(graph.clone(), heldout.clone(), config.clone(), threads)
                .unwrap();
        par.run(6);
        assert_eq!(
            seq.state().theta(),
            par.state().theta(),
            "theta diverged with {threads} pool threads"
        );
        for a in 0..seq.state().n() {
            assert_eq!(
                seq.state().pi_row(a),
                par.state().pi_row(a),
                "pi row {a} diverged with {threads} pool threads"
            );
        }
        let ps = seq.evaluate_perplexity();
        let pp = par.evaluate_perplexity();
        assert_eq!(
            ps, pp,
            "perplexity diverged with {threads} pool threads: {ps} vs {pp}"
        );
    }
}
