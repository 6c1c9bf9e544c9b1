//! Quickstart: detect overlapping communities in a small synthetic graph.
//!
//! ```text
//! cargo run --release -p mmsb --example quickstart
//! ```
//!
//! Generates a graph with planted overlapping communities, trains the
//! sequential SG-MCMC sampler while tracking held-out perplexity, and
//! prints the recovered communities next to the planted ones.

use mmsb::prelude::*;

fn main() {
    // 1. A synthetic social network: 400 vertices, 8 overlapping
    //    communities of ~55 members, strong intra-community density.
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(2024);
    let generated = generate_planted(
        &PlantedConfig {
            num_vertices: 400,
            num_communities: 8,
            mean_community_size: 55.0,
            memberships_per_vertex: 1.1,
            internal_degree: 14.0,
            background_degree: 0.5,
        },
        &mut rng,
    );
    println!(
        "graph: {} vertices, {} edges, {} planted communities",
        generated.graph.num_vertices(),
        generated.graph.num_edges(),
        generated.ground_truth.num_communities()
    );

    // 2. Hold out links + non-links for perplexity evaluation.
    let (train, heldout) = HeldOut::split(&generated.graph, 150, &mut rng);

    // 3. Train. K matches the planted count here; in practice K is a
    //    modeling choice.
    let config = SamplerConfig::new(8)
        .with_seed(7)
        .with_minibatch(Strategy::StratifiedNode {
            partitions: 16,
            anchors: 16,
        });
    let mut sampler =
        ParallelSampler::with_threads(train, heldout, config, 1).expect("valid configuration");

    println!("\n{:>6}  {:>10}", "iter", "perplexity");
    for _ in 0..8 {
        sampler.run(250);
        let perplexity = sampler.evaluate_perplexity();
        println!("{:>6}  {:>10.4}", sampler.iteration(), perplexity);
    }

    // 4. Extract and score the detected communities.
    let detected = sampler.communities(0.1);
    let f1 = eval::best_match_f1(&detected.members, &generated.ground_truth);
    println!(
        "\ndetected {} non-empty communities (of K = 8), best-match F1 vs planted truth: {f1:.3}",
        detected.num_nonempty()
    );
    for (k, members) in detected.members.iter().enumerate() {
        if !members.is_empty() {
            let ids: Vec<u32> = members.iter().take(8).map(|v| v.0).collect();
            println!(
                "  community {k}: {} members, e.g. {ids:?}, strength beta = {:.3}",
                members.len(),
                sampler.state().beta()[k]
            );
        }
    }
}
