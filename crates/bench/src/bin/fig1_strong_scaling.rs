//! Figure 1 reproduction: strong scaling of the distributed sampler.
//!
//! Paper setup: com-Friendster, K = 1024, M = 16384 mini-batch vertices,
//! n = 32 neighbors, 2048 iterations, 8–64 worker nodes; reports total
//! execution time, the cumulative time of each phase, and speedup vs the
//! 8-node run (Figures 1a and 1b).
//!
//! Ours: the syn-friendster stand-in with K = 64, ~1024 mini-batch
//! vertices (32 strata), n = 32, 128 iterations, the same worker counts.

use mmsb::netsim::Phase;
use mmsb::prelude::*;
use mmsb_bench::{
    fmt_secs, friendster_standin, simulate, stratified_config, HarnessArgs, TableWriter,
};

fn main() {
    let args = HarnessArgs::parse();
    let iters = args.pick(64, 16);
    let (train, heldout, _) = friendster_standin(args.quick);
    println!(
        "Figure 1 — strong scaling: {} vertices, {} edges, K = {}, {} iterations\n",
        train.num_vertices(),
        train.num_edges(),
        args.pick_usize(64, 16),
        iters
    );

    let config = stratified_config(args.pick_usize(64, 16), 1, args.pick_usize(32, 8));

    let mut table = TableWriter::new(
        &[
            "workers",
            "total (s)",
            "speedup",
            "draw+deploy (s)",
            "update_phi_pi (s)",
            "update_beta_theta (s)",
        ],
        args.csv.clone(),
    );
    let mut base_time = None;
    for workers in [8usize, 16, 32, 48, 64] {
        let dcfg = DistributedConfig::das5(workers);
        let report = simulate(&train, &heldout, config.clone(), dcfg, iters).report();
        let total = report.total_seconds;
        let base = *base_time.get_or_insert(total);
        let draw_deploy =
            report.phases.total(Phase::DrawMinibatch) + report.phases.total(Phase::DeployMinibatch);
        let phi_pi = report.phases.total(Phase::SampleNeighbors)
            + report.phases.total(Phase::LoadPi)
            + report.phases.total(Phase::UpdatePhi)
            + report.phases.total(Phase::UpdatePi);
        let beta = report.phases.total(Phase::UpdateBetaTheta);
        table.row(&[
            workers.to_string(),
            fmt_secs(total),
            format!("{:.2}x", base / total),
            fmt_secs(draw_deploy),
            fmt_secs(phi_pi),
            fmt_secs(beta),
        ]);
    }
    table.finish();
    println!(
        "\nexpected shape (paper): total time decreases with workers; update_phi_pi \
         dominates; update_beta_theta stays nearly flat (collective-bound)."
    );
}
