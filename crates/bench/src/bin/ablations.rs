//! Ablations for the design choices DESIGN.md calls out.
//!
//! 1. State layout: `pi + sum(phi)` (the paper's memory-saving choice)
//!    vs storing full `phi` — memory and accuracy impact.
//! 2. Mini-batch strategy: stratified random-node vs uniform random-pair —
//!    convergence per iteration.
//! 3. DKV chunk granularity: pipelining benefit vs chunk size.

use mmsb::prelude::*;
use mmsb_bench::{HarnessArgs, TableWriter};

fn training_set(quick: bool) -> (Graph, HeldOut) {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xAB1);
    let n = if quick { 300 } else { 800 };
    let generated = generate_planted(
        &PlantedConfig {
            num_vertices: n,
            num_communities: 12,
            mean_community_size: n as f64 / 11.0,
            memberships_per_vertex: 1.1,
            internal_degree: 14.0,
            background_degree: 0.5,
        },
        &mut rng,
    );
    let links = (generated.graph.num_edges() / 20).max(60) as usize;
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xAB2);
    HeldOut::split(&generated.graph, links, &mut rng)
}

fn main() {
    let args = HarnessArgs::parse();
    let iters = args.pick(1500, 150);
    let (train, heldout) = training_set(args.quick);

    // ---- 1. State layout -------------------------------------------
    println!("Ablation 1 — state layout (paper §III-A)\n");
    let mut table = TableWriter::new(
        &["layout", "state bytes", "final perplexity"],
        args.csv.clone(),
    );
    for layout in [StateLayout::PiSumPhi, StateLayout::FullPhi] {
        let config = SamplerConfig::new(12)
            .with_seed(9)
            .with_layout(layout)
            .with_minibatch(Strategy::StratifiedNode {
                partitions: 16,
                anchors: 16,
            });
        let mut s = ParallelSampler::with_threads(train.clone(), heldout.clone(), config, 1).unwrap();
        s.run(iters);
        let perp = s.evaluate_perplexity();
        table.row(&[
            format!("{layout:?}"),
            s.state().memory_bytes().to_string(),
            format!("{perp:.4}"),
        ]);
    }
    table.finish();

    // ---- 2. Mini-batch strategy -------------------------------------
    println!("\nAblation 2 — mini-batch strategy\n");
    let mut table = TableWriter::new(&["strategy", "final perplexity"], None);
    for (name, strategy) in [
        (
            "stratified (m=16, anchors=16)",
            Strategy::StratifiedNode {
                partitions: 16,
                anchors: 16,
            },
        ),
        (
            "stratified (m=16, anchors=1)",
            Strategy::StratifiedNode {
                partitions: 16,
                anchors: 1,
            },
        ),
        ("random pairs (512)", Strategy::RandomPair { size: 512 }),
    ] {
        let config = SamplerConfig::new(12).with_seed(9).with_minibatch(strategy);
        let mut s = ParallelSampler::with_threads(train.clone(), heldout.clone(), config, 1).unwrap();
        s.run(iters);
        table.row(&[name.to_string(), format!("{:.4}", s.evaluate_perplexity())]);
    }
    table.finish();

    // ---- 3. Chunk granularity ---------------------------------------
    println!("\nAblation 3 — DKV chunk size vs pipelining benefit (16 workers)\n");
    let mut table = TableWriter::new(
        &["chunk vertices", "single (s)", "double (s)", "saved (%)"],
        None,
    );
    let dist_iters = args.pick(24, 4);
    for chunk in [2usize, 8, 32, 128] {
        let config = SamplerConfig::new(16)
            .with_seed(9)
            .with_minibatch(Strategy::StratifiedNode {
                partitions: 16,
                anchors: 32,
            });
        let mut times = Vec::new();
        for mode in [PipelineMode::Single, PipelineMode::Double] {
            let mut dcfg = DistributedConfig::das5(16).with_pipeline(mode);
            dcfg.chunk_vertices = chunk;
            let mut s = DistributedSampler::new(
                train.clone(),
                heldout.clone(),
                config.clone(),
                dcfg,
            )
            .unwrap();
            s.run(dist_iters);
            times.push(s.virtual_time());
        }
        table.row(&[
            chunk.to_string(),
            format!("{:.4}", times[0]),
            format!("{:.4}", times[1]),
            format!("{:.1}", 100.0 * (times[0] - times[1]) / times[0]),
        ]);
    }
    table.finish();
    println!(
        "\nreading: PiSumPhi halves state memory with negligible accuracy cost; \
         multi-anchor stratified batches converge per-iteration like large uniform \
         batches but focus compute on links; mid-sized chunks pipeline best (tiny \
         chunks pay per-batch latency, huge chunks leave nothing to overlap)."
    );
}
