//! The distributed master–worker sampler on a simulated cluster.
//!
//! ```text
//! cargo run --release -p mmsb --example distributed_simulation
//! ```
//!
//! Runs the same chain on simulated FDR-InfiniBand clusters of several
//! sizes (the paper's DAS5 setup), with and without the pipelined
//! (double-buffered) `pi` loads, and prints the per-stage timing
//! breakdown — a miniature of Figure 1 and Table III.

use mmsb::prelude::*;

fn main() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(11);
    let generated = generate_planted(
        &PlantedConfig {
            num_vertices: 4000,
            num_communities: 64,
            mean_community_size: 70.0,
            memberships_per_vertex: 1.1,
            internal_degree: 12.0,
            background_degree: 1.0,
        },
        &mut rng,
    );
    let (train, heldout) = HeldOut::split(&generated.graph, 500, &mut rng);

    let config = SamplerConfig::new(32)
        .with_seed(3)
        .with_minibatch(Strategy::StratifiedNode {
            partitions: 32,
            anchors: 64,
        })
        .with_neighbor_sample(32);

    let iters = 30;
    println!("strong scaling, {iters} iterations, K = 32:\n");
    println!(
        "{:>8} {:>12} {:>12} {:>10}",
        "workers", "single (s)", "double (s)", "speedup"
    );
    let mut baseline = None;
    for workers in [2usize, 4, 8, 16] {
        let mut times = Vec::new();
        for mode in [PipelineMode::Single, PipelineMode::Double] {
            let dcfg = DistributedConfig::das5(workers).with_pipeline(mode);
            let mut sampler =
                DistributedSampler::new(train.clone(), heldout.clone(), config.clone(), dcfg)
                    .expect("valid configuration");
            sampler.run(iters);
            times.push(sampler.virtual_time());
        }
        let base = *baseline.get_or_insert(times[1]);
        println!(
            "{:>8} {:>12.4} {:>12.4} {:>9.2}x",
            workers,
            times[0],
            times[1],
            base / times[1]
        );
    }

    // Per-stage breakdown at 8 workers (Table III shape).
    let dcfg = DistributedConfig::das5(8);
    let mut sampler =
        DistributedSampler::new(train, heldout, config, dcfg).expect("valid configuration");
    sampler.run(iters);
    let perplexity = sampler.evaluate_perplexity();
    println!("\nper-stage breakdown on 8 workers (pipelined):\n");
    print!("{}", sampler.report());
    println!("\nheld-out perplexity after {iters} iterations: {perplexity:.3}");
}
