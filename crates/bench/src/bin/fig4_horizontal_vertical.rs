//! Figure 4 reproduction: horizontal (distributed) vs vertical
//! (single-node multithreaded) scaling.
//!
//! Paper setup: (a) com-DBLP on the 40-core / 1 TB HPC Cloud machine with
//! 40 and 16 cores vs one 16-core DAS5 node, K swept; (b) com-Friendster
//! on 64 DAS5 nodes vs the 40-core machine, K swept — the distributed
//! version wins and the gap widens with K.
//!
//! Ours: same comparison on the syn-dblp / syn-friendster stand-ins; the
//! "machines" are the node compute models of DESIGN.md §3 pricing the same
//! counted kernel work.

use mmsb::prelude::*;
use mmsb_bench::{simulate, stratified_config, HarnessArgs, TableWriter};

fn dblp(quick: bool) -> (Graph, HeldOut) {
    let spec = by_name("syn-dblp").expect("stand-in exists");
    let mut config = spec.config.clone();
    if quick {
        config.num_vertices /= 8;
        config.num_communities /= 8;
    }
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(spec.seed);
    let generated = generate_planted(&config, &mut rng);
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xD8);
    let links = (generated.graph.num_edges() / 200).max(64) as usize;
    let (train, heldout) = HeldOut::split(&generated.graph, links, &mut rng);
    (train, heldout)
}

/// A single node with `cores` cores: one simulated worker whose node
/// model has the given width, with an ideal network (no wire: all state
/// is local RAM).
fn single_node(cores: usize) -> DistributedConfig {
    DistributedConfig {
        net: NetworkModel::ideal(),
        node: NodeComputeModel::hpc_cloud_40().with_cores(cores),
        ..DistributedConfig::das5(1)
    }
}

/// Modelled seconds per iteration of the cluster `dcfg`.
fn time_per_iter(
    train: &Graph,
    heldout: &HeldOut,
    k: usize,
    anchors: usize,
    dcfg: DistributedConfig,
    iters: u64,
) -> f64 {
    let config = stratified_config(k, 5, anchors);
    simulate(train, heldout, config, dcfg, iters).virtual_time() / iters as f64
}

fn main() {
    let args = HarnessArgs::parse();
    let iters = args.pick(32, 6);
    let anchors = args.pick_usize(32, 8);

    // ---- (a) syn-dblp: 40 vs 16 cores on one machine -----------------
    let (train, heldout) = dblp(args.quick);
    println!(
        "Figure 4a — syn-dblp ({} vertices), single machine, time/iter (ms)\n",
        train.num_vertices()
    );
    let k_sweep_a: &[usize] = if args.quick {
        &[16, 32]
    } else {
        &[32, 64, 128, 256]
    };
    let mut table = TableWriter::new(
        &[
            "K",
            "16 cores (DAS5 node)",
            "16 cores (cloud)",
            "40 cores (cloud)",
        ],
        args.csv.clone(),
    );
    for &k in k_sweep_a {
        let das5 = time_per_iter(&train, &heldout, k, anchors, single_node(16), iters);
        let cloud16 = time_per_iter(&train, &heldout, k, anchors, single_node(16), iters);
        let cloud40 = time_per_iter(&train, &heldout, k, anchors, single_node(40), iters);
        table.row(&[
            k.to_string(),
            format!("{:.2}", das5 * 1e3),
            format!("{:.2}", cloud16 * 1e3),
            format!("{:.2}", cloud40 * 1e3),
        ]);
    }
    table.finish();

    // ---- (b) syn-friendster: 64 nodes vs 40-core machine -------------
    let (train, heldout, _) = mmsb_bench::friendster_standin(args.quick);
    println!(
        "\nFigure 4b — syn-friendster ({} vertices), time/iter (ms)\n",
        train.num_vertices()
    );
    let k_sweep_b: &[usize] = if args.quick {
        &[16, 32]
    } else {
        &[32, 64, 128, 256]
    };
    let mut table = TableWriter::new(
        &[
            "K",
            "40-core machine",
            "64-node cluster",
            "cluster advantage",
        ],
        None,
    );
    for &k in k_sweep_b {
        let vertical = time_per_iter(&train, &heldout, k, anchors, single_node(40), iters);
        let horizontal = time_per_iter(
            &train,
            &heldout,
            k,
            anchors,
            DistributedConfig::das5(64),
            iters,
        );
        table.row(&[
            k.to_string(),
            format!("{:.2}", vertical * 1e3),
            format!("{:.2}", horizontal * 1e3),
            format!("{:.2}x", vertical / horizontal),
        ]);
    }
    table.finish();
    println!(
        "\nexpected shape (paper): more cores help on one machine (4a); the 64-node \
         cluster clearly outperforms the 40-core machine and its advantage grows \
         with K (4b)."
    );
}
