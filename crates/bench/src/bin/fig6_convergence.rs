//! Figure 6 reproduction: convergence on the six datasets.
//!
//! Paper setup: perplexity vs wall time for the six SNAP graphs; the three
//! large sets run on 65 nodes (3–40 h to a stable state), the three small
//! ones on 14–24 nodes with K set to their ground-truth community counts.
//!
//! Ours: the six stand-ins, trained with the parallel driver until the
//! plateau detector fires (the paper's "stable state"), reporting the
//! perplexity trace and the time-to-plateau. Graph sizes (and hence
//! convergence times) are scaled down by the documented divisors.

use mmsb::prelude::*;
use mmsb_bench::{HarnessArgs, TableWriter};
use std::time::Instant;

fn main() {
    let args = HarnessArgs::parse();
    println!("Figure 6 — convergence to a stable state on the six stand-ins\n");
    let mut table = TableWriter::new(
        &[
            "dataset",
            "vertices",
            "K",
            "initial perp",
            "final perp",
            "iterations",
            "wall (s)",
            "plateaued",
        ],
        args.csv.clone(),
    );

    for spec in standins() {
        let mut gen_config = spec.config.clone();
        // Full mode caps the stand-ins at 16K vertices (an extra ~4x on
        // the big three) so all six convergence runs finish in minutes on
        // one machine; --quick shrinks further.
        let cap = if args.quick { 1024 } else { 16_384 };
        if gen_config.num_vertices > cap {
            let div = gen_config.num_vertices / cap;
            gen_config.num_vertices = cap;
            gen_config.num_communities = (gen_config.num_communities / div as usize).max(8);
        }
        let generated = {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(spec.seed);
            generate_planted(&gen_config, &mut rng)
        };
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(spec.seed ^ 0xF00D);
        let links = (generated.graph.num_edges() / 100).max(64) as usize;
        let (train, heldout) = HeldOut::split(&generated.graph, links, &mut rng);

        // K: ground-truth community count for the small sets, capped for
        // the large ones (the paper caps at 12K on Friendster; our cap
        // scales with the graph divisor).
        let k = gen_config.num_communities.min(args.pick_usize(64, 16));
        let config = SamplerConfig::new(k)
            .with_seed(spec.seed)
            .with_minibatch(Strategy::StratifiedNode {
                partitions: 32,
                anchors: args.pick_usize(8, 4),
            })
            .with_neighbor_sample(32);
        let mut sampler =
            ParallelSampler::new(train, heldout, config).expect("valid configuration");

        let t0 = Instant::now();
        let initial = sampler.evaluate_perplexity();
        let mut detector = PlateauDetector::new(4, 0.005);
        let eval_every = args.pick(100, 50);
        let max_rounds = args.pick(30, 6);
        let mut last = initial;
        let mut plateaued = false;
        for _ in 0..max_rounds {
            sampler.run(eval_every);
            last = sampler.evaluate_perplexity();
            if detector.record(last) {
                plateaued = true;
                break;
            }
        }
        table.row(&[
            spec.name.to_string(),
            generated.graph.num_vertices().to_string(),
            k.to_string(),
            format!("{initial:.3}"),
            format!("{last:.3}"),
            sampler.iteration().to_string(),
            format!("{:.1}", t0.elapsed().as_secs_f64()),
            plateaued.to_string(),
        ]);
        eprintln!(
            "{}: perplexity trace {:?}",
            spec.name,
            detector
                .history()
                .iter()
                .map(|p| (p * 100.0).round() / 100.0)
                .collect::<Vec<_>>()
        );
    }
    table.finish();
    println!(
        "\nexpected shape (paper): every dataset's perplexity descends from its \
         random-initialization value and flattens into a stable state; larger K \
         and larger graphs take proportionally longer."
    );
}
