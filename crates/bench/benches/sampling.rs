//! Benches for mini-batch machinery and whole sampler steps, on the
//! in-tree timing harness (`mmsb_bench::timing`).

use mmsb::graph::minibatch::MinibatchSampler;
use mmsb::graph::neighbor::NeighborSampler;
use mmsb::prelude::*;
use mmsb_bench::timing::{black_box, Suite};

fn training_graph() -> (Graph, HeldOut) {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
    let generated = generate_planted(
        &PlantedConfig {
            num_vertices: 2000,
            num_communities: 32,
            mean_community_size: 70.0,
            memberships_per_vertex: 1.1,
            internal_degree: 12.0,
            background_degree: 0.5,
        },
        &mut rng,
    );
    HeldOut::split(&generated.graph, 400, &mut rng)
}

fn bench_minibatch(suite: &mut Suite, graph: &Graph, heldout: &HeldOut) {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
    for (name, strategy) in [
        (
            "stratified_32anchors",
            Strategy::StratifiedNode {
                partitions: 32,
                anchors: 32,
            },
        ),
        ("random_pairs_1024", Strategy::RandomPair { size: 1024 }),
    ] {
        let sampler = MinibatchSampler::new(strategy);
        suite.bench(&format!("minibatch/{name}"), || {
            black_box(sampler.sample(graph, Some(heldout), &mut rng))
        });
    }
}

fn bench_neighbor_sampling(suite: &mut Suite, graph: &Graph, heldout: &HeldOut) {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
    for n in [32usize, 128] {
        let sampler = NeighborSampler::new(graph.num_vertices(), n);
        suite.bench(&format!("neighbor_sample/{n}"), || {
            black_box(sampler.sample(VertexId(7), Some(heldout), &mut rng))
        });
    }
}

fn bench_sampler_step(suite: &mut Suite, graph: &Graph, heldout: &HeldOut) {
    for k in [16usize, 64] {
        let config = SamplerConfig::new(k)
            .with_seed(5)
            .with_minibatch(Strategy::StratifiedNode {
                partitions: 32,
                anchors: 16,
            });
        let mut sampler = ParallelSampler::with_threads(graph.clone(), heldout.clone(), config, 1).unwrap();
        suite.bench(&format!("sampler_step/sequential/{k}"), || sampler.step());
    }
}

fn bench_perplexity_eval(suite: &mut Suite, graph: &Graph, heldout: &HeldOut) {
    let config = SamplerConfig::new(64).with_seed(6);
    let mut sampler = ParallelSampler::with_threads(graph.clone(), heldout.clone(), config, 1).unwrap();
    sampler.run(5);
    suite.bench("perplexity_eval/heldout_800_pairs_k64", || {
        black_box(sampler.evaluate_perplexity())
    });
}

fn main() {
    let mut suite = Suite::from_args("sampling");
    let (graph, heldout) = training_graph();
    bench_minibatch(&mut suite, &graph, &heldout);
    bench_neighbor_sampling(&mut suite, &graph, &heldout);
    bench_sampler_step(&mut suite, &graph, &heldout);
    bench_perplexity_eval(&mut suite, &graph, &heldout);
    suite.finish();
}
