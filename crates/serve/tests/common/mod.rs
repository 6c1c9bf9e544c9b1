//! Shared by the suites that drive a live server: the tiny trained
//! model they serve, and synchronisation on state the test can observe
//! instead of on a fixed sleep.

use mmsb_core::{Checkpoint, ParallelSampler, SamplerConfig};
use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};
use mmsb_graph::heldout::HeldOut;
use mmsb_obs::clock::Stopwatch;
use mmsb_rand::Xoshiro256PlusPlus;
use std::path::PathBuf;
use std::time::Duration;

const K: usize = 4;

pub fn train_checkpoint(seed: u64, iters: u64) -> Checkpoint {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let gen = generate_planted(
        &PlantedConfig {
            num_vertices: 40,
            num_communities: K,
            mean_community_size: 12.0,
            memberships_per_vertex: 1.2,
            internal_degree: 8.0,
            background_degree: 0.5,
        },
        &mut rng,
    );
    let (graph, heldout) = HeldOut::split(&gen.graph, 20, &mut rng);
    let mut s =
        ParallelSampler::with_threads(graph, heldout, SamplerConfig::new(K).with_seed(seed), 1)
            .unwrap();
    s.run(iters);
    s.checkpoint()
}

pub fn tmp_model(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mmsb-serve-{tag}-{}.ckpt", std::process::id()))
}

/// Poll `reached` every millisecond until it holds; panic with `what`
/// and the caller's `state()` if it has not held after five seconds.
pub fn wait_until<S: std::fmt::Debug>(
    what: &str,
    state: impl Fn() -> S,
    mut reached: impl FnMut() -> bool,
) {
    let sw = Stopwatch::start();
    while !reached() {
        assert!(
            sw.elapsed_ns() < 5_000_000_000,
            "gave up after 5 s waiting until {what}: {:?}",
            state()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}
