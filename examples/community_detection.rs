//! Overlapping community recovery with ground-truth scoring.
//!
//! ```text
//! cargo run --release -p mmsb --example community_detection
//! ```
//!
//! The scenario the paper's introduction motivates: a social network whose
//! members belong to *several* circles at once. This example plants strong
//! overlap (1.3 memberships/vertex), trains the parallel sampler (the
//! paper's node-level OpenMP layer), compares against the SVI baseline the
//! paper cites, and reports recovery quality for both.

use mmsb::core::PosteriorMean;
use mmsb::prelude::*;
use mmsb::svi::{SviConfig, SviSampler};

fn f1_of<M: AsRef<[Vec<VertexId>]>>(members: M, truth: &GroundTruth) -> f64 {
    eval::best_match_f1(members.as_ref(), truth)
}

fn main() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(99);
    let generated = generate_planted(
        &PlantedConfig {
            num_vertices: 600,
            num_communities: 12,
            mean_community_size: 65.0,
            memberships_per_vertex: 1.3,
            internal_degree: 18.0,
            background_degree: 0.3,
        },
        &mut rng,
    );
    let truth = &generated.ground_truth;
    println!(
        "graph: {} vertices, {} edges, {} planted communities, {:.2} memberships/vertex",
        generated.graph.num_vertices(),
        generated.graph.num_edges(),
        truth.num_communities(),
        truth.mean_memberships(generated.graph.num_vertices()),
    );

    let (train, heldout) = HeldOut::split(&generated.graph, 200, &mut rng);
    let strategy = Strategy::StratifiedNode {
        partitions: 16,
        anchors: 24,
    };

    // --- SG-MCMC (this paper) --------------------------------------
    let config = SamplerConfig::new(12).with_seed(5).with_minibatch(strategy);
    let mut mcmc = ParallelSampler::new(train.clone(), heldout.clone(), config)
        .expect("valid configuration");
    let mut posterior = PosteriorMean::new(generated.graph.num_vertices(), 12);
    println!("\nSG-MCMC (parallel driver):");
    println!("{:>6}  {:>10}  {:>8}", "iter", "perplexity", "F1");
    for round in 0..8 {
        mcmc.run(400);
        let perplexity = mcmc.evaluate_perplexity();
        let f1 = f1_of(&mcmc.communities(0.08).members, truth);
        println!("{:>6}  {:>10.4}  {:>8.3}", mcmc.iteration(), perplexity, f1);
        if round >= 4 {
            // Average the tail of the chain for the final extraction.
            posterior.record(mcmc.state());
        }
    }
    let averaged_f1 = f1_of(&posterior.communities(0.08).members, truth);
    println!(
        "posterior-averaged extraction over the last {} samples: F1 {averaged_f1:.3}",
        posterior.samples()
    );

    // --- SVI baseline (the SVB family the paper compares against) ---
    let mut svi = SviSampler::new(
        train,
        heldout,
        SviConfig::new(12).with_seed(5).with_minibatch(strategy),
    );
    println!("\nSVI baseline:");
    println!("{:>6}  {:>10}  {:>8}", "iter", "perplexity", "F1");
    for _ in 0..8 {
        svi.run(400);
        let perplexity = svi.evaluate_perplexity();
        let f1 = f1_of(svi.communities(0.08), truth);
        println!("{:>6}  {:>10.4}  {:>8.3}", svi.iteration(), perplexity, f1);
    }

    // --- Who found the overlap? -------------------------------------
    let detected = mcmc.communities(0.08);
    let overlapping = detected
        .memberships(generated.graph.num_vertices())
        .iter()
        .filter(|m| m.len() > 1)
        .count();
    println!(
        "\nSG-MCMC assigned {overlapping} vertices to more than one community \
         (planted: {})",
        truth
            .memberships(generated.graph.num_vertices())
            .iter()
            .filter(|m| m.len() > 1)
            .count()
    );
}
