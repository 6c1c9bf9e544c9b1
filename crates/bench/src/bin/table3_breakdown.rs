//! Table III reproduction: per-stage milliseconds per iteration.
//!
//! Paper setup: com-Friendster on 65 nodes (1 master + 64 workers) with
//! 12K communities; the table lists total, draw/deploy, update_phi,
//! update_pi and update beta/theta rows, with the update_phi sub-stages
//! (load pi / update phi / draw-deploy overlap) shown for the pipelined
//! column.
//!
//! Ours: 64 simulated workers, K scaled to 256 (12K / ~50, in line with
//! the 1000x graph scale-down), same row set.

use mmsb::netsim::Phase;
use mmsb::prelude::*;
use mmsb_bench::{friendster_standin, simulate, stratified_config, HarnessArgs, TableWriter};

fn run(
    train: &Graph,
    heldout: &HeldOut,
    k: usize,
    anchors: usize,
    iters: u64,
    mode: PipelineMode,
) -> TraceReport {
    let config = stratified_config(k, 4, anchors);
    let dcfg = DistributedConfig::das5(64).with_pipeline(mode);
    simulate(train, heldout, config, dcfg, iters).report()
}

fn main() {
    let args = HarnessArgs::parse();
    let iters = args.pick(16, 6);
    let k = args.pick_usize(256, 32);
    let (train, heldout, _) = friendster_standin(args.quick);
    println!("Table III — stage breakdown, 64 workers, K = {k}, {iters} iterations (ms/iter)\n");

    let single = run(
        &train,
        &heldout,
        k,
        args.pick_usize(32, 8),
        iters,
        PipelineMode::Single,
    );
    let double = run(
        &train,
        &heldout,
        k,
        args.pick_usize(32, 8),
        iters,
        PipelineMode::Double,
    );

    let mut table = TableWriter::new(
        &["iteration stage", "non-pipelined", "pipelined"],
        args.csv.clone(),
    );
    let ms = |r: &TraceReport, p: Phase| format!("{:.2}", r.ms_per_iter(p));
    table.row(&[
        "total".into(),
        format!("{:.2}", single.total_ms_per_iter()),
        format!("{:.2}", double.total_ms_per_iter()),
    ]);
    table.row(&[
        "draw/deploy mini-batch".into(),
        format!(
            "{:.2}",
            single.ms_per_iter(Phase::DrawMinibatch) + single.ms_per_iter(Phase::DeployMinibatch)
        ),
        format!(
            "({:.2})",
            double.ms_per_iter(Phase::DrawMinibatch) + double.ms_per_iter(Phase::DeployMinibatch)
        ),
    ]);
    table.row(&[
        "load pi".into(),
        ms(&single, Phase::LoadPi),
        ms(&double, Phase::LoadPi),
    ]);
    table.row(&[
        "update phi".into(),
        ms(&single, Phase::UpdatePhi),
        ms(&double, Phase::UpdatePhi),
    ]);
    table.row(&[
        "update pi".into(),
        ms(&single, Phase::UpdatePi),
        ms(&double, Phase::UpdatePi),
    ]);
    table.row(&[
        "update beta/theta".into(),
        ms(&single, Phase::UpdateBetaTheta),
        ms(&double, Phase::UpdateBetaTheta),
    ]);
    table.finish();
    println!(
        "\nexpected shape (paper): load pi dominates update_phi; in the pipelined \
         column draw/deploy and part of load pi are hidden under compute, so the \
         pipelined total is markedly below the non-pipelined total (365 vs 450 ms \
         in the paper's absolute numbers)."
    );
}
