//! Figure 3 reproduction: single- vs double-buffered `pi` loads.
//!
//! Paper setup: 64 worker nodes, 1024 iterations, K swept upward; both
//! computation and network latency grow with K, so the absolute benefit of
//! overlapping them widens — the gap between the two lines grows.
//!
//! Ours: 64 simulated workers, K swept {256..2048} so the DKV rows span
//! 1-8 KB — the bandwidth-bound regime the paper's K = 1024+ rows live
//! in, where the latency hidden by double buffering grows with K.

use mmsb::prelude::*;
use mmsb_bench::{
    fmt_secs, friendster_standin, simulate, stratified_config, HarnessArgs, TableWriter,
};

fn main() {
    let args = HarnessArgs::parse();
    let iters = args.pick(24, 8);
    let workers = 64;
    // K reaches 2048: keep N at the quick scale so the N x K state and
    // the per-iteration compute stay tractable on one machine.
    let (train, heldout, _) = friendster_standin(true);
    println!("Figure 3 — pipelining benefit on {workers} workers, {iters} iterations\n");

    let k_sweep: &[usize] = if args.quick {
        &[64, 128]
    } else {
        &[256, 512, 1024, 2048]
    };
    let mut table = TableWriter::new(
        &["K", "single (s)", "double (s)", "saved (s)", "saved (%)"],
        args.csv.clone(),
    );
    for &k in k_sweep {
        let config = stratified_config(k, 3, args.pick_usize(8, 4));
        let times: Vec<f64> = [PipelineMode::Single, PipelineMode::Double]
            .into_iter()
            .map(|mode| {
                let dcfg = DistributedConfig::das5(workers).with_pipeline(mode);
                simulate(&train, &heldout, config.clone(), dcfg, iters).virtual_time()
            })
            .collect();
        let saved = times[0] - times[1];
        table.row(&[
            k.to_string(),
            fmt_secs(times[0]),
            fmt_secs(times[1]),
            fmt_secs(saved),
            format!("{:.1}", 100.0 * saved / times[0]),
        ]);
    }
    table.finish();
    println!(
        "\nexpected shape (paper): both lines grow with K; double-buffering is \
         consistently faster and the absolute gap widens with K."
    );
}
