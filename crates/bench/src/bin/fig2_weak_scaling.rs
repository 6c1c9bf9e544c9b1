//! Figure 2 reproduction: weak scaling.
//!
//! Paper setup: cluster size and number of latent communities grow
//! proportionally, so each node's compute share is constant while
//! communication intensity rises; Figure 2a plots average time per
//! iteration (nearly flat = low overhead), Figure 2b the K used per point.
//!
//! Ours: the same proportionality (K = 8 x workers), scaled down.

use mmsb::prelude::*;
use mmsb_bench::{friendster_standin, simulate, stratified_config, HarnessArgs, TableWriter};

fn main() {
    let args = HarnessArgs::parse();
    let iters = args.pick(12, 8);
    let k_per_worker = args.pick_usize(128, 8);
    // (full mode: K reaches 8192 at 64 workers — the paper uses 12K)
    // Weak scaling sweeps K up to 128 x 64 = 8192; use the quick-size
    // stand-in even for full runs so the N x K state stays within RAM.
    let (train, heldout, _) = friendster_standin(true);
    println!("Figure 2 — weak scaling: K = {k_per_worker} x workers, {iters} iterations\n");

    let mut table = TableWriter::new(
        &["workers", "K", "avg time/iter (ms)", "vs 2 workers"],
        args.csv.clone(),
    );
    let mut base = None;
    for workers in [2usize, 4, 8, 16, 32, 64] {
        let k = k_per_worker * workers;
        let config = stratified_config(k, 2, args.pick_usize(32, 8));
        let sampler = simulate(
            &train,
            &heldout,
            config,
            DistributedConfig::das5(workers),
            iters,
        );
        let per_iter = 1e3 * sampler.virtual_time() / iters as f64;
        let b = *base.get_or_insert(per_iter);
        table.row(&[
            workers.to_string(),
            k.to_string(),
            format!("{per_iter:.2}"),
            format!("{:.2}x", per_iter / b),
        ]);
    }
    table.finish();
    println!(
        "\nexpected shape (paper): time/iteration stays nearly constant as workers \
         and K grow together — the system's overhead is minimal."
    );
}
