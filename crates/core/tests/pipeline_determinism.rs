//! Bitwise determinism across pipeline modes.
//!
//! `PipelineMode::Double` executes the `pi` loads for real on the
//! reader's background thread, overlapped with compute;
//! `PipelineMode::Single` loads synchronously. The contract: chunk
//! boundaries, RNG streams, and reduction order are identical in both
//! modes — only *when* bytes are copied changes — so after any number of
//! iterations the sampler state must match bit for bit.

use mmsb_core::{
    train_threaded, DistributedConfig, DistributedSampler, SamplerConfig,
};
use mmsb_dkv::pipeline::PipelineMode;
use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};
use mmsb_graph::heldout::HeldOut;
use mmsb_graph::Graph;
use mmsb_rand::Xoshiro256PlusPlus;

fn setup(seed: u64) -> (Graph, HeldOut) {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let gen = generate_planted(
        &PlantedConfig {
            num_vertices: 140,
            num_communities: 3,
            mean_community_size: 50.0,
            memberships_per_vertex: 1.1,
            internal_degree: 8.0,
            background_degree: 0.5,
        },
        &mut rng,
    );
    HeldOut::split(&gen.graph, 45, &mut rng)
}

/// The lockstep distributed sampler: 5 iterations under Single vs Double
/// (real overlap) must produce identical `pi`/`theta` state and identical
/// perplexity.
#[test]
fn distributed_single_vs_double_is_bitwise_identical() {
    let (g, h) = setup(11);
    let cfg = SamplerConfig::new(4).with_seed(13);
    let mut single = DistributedSampler::new(
        g.clone(),
        h.clone(),
        cfg.clone(),
        DistributedConfig::das5(4).with_pipeline(PipelineMode::Single),
    )
    .unwrap();
    let mut double = DistributedSampler::new(
        g,
        h,
        cfg,
        DistributedConfig::das5(4).with_pipeline(PipelineMode::Double),
    )
    .unwrap();
    single.run(5);
    double.run(5);

    for a in 0..single.state().n() {
        assert_eq!(
            single.state().pi_row(a),
            double.state().pi_row(a),
            "pi diverged at vertex {a}"
        );
    }
    assert_eq!(single.state().theta(), double.state().theta(), "theta diverged");
    let ps = single.evaluate_perplexity();
    let pd = double.evaluate_perplexity();
    assert_eq!(ps, pd, "perplexity diverged: {ps} vs {pd}");
    assert_eq!(
        ps.to_bits(),
        pd.to_bits(),
        "perplexity diverged at the bit level"
    );
}

/// Same contract for the genuinely concurrent threaded driver, where
/// Double mode overlaps store reads with compute on a per-worker
/// background thread.
#[test]
fn threaded_single_vs_double_is_bitwise_identical() {
    let (g, h) = setup(12);
    let cfg = SamplerConfig::new(4).with_seed(17);
    let single = train_threaded(
        g.clone(),
        h.clone(),
        cfg.clone(),
        3,
        5,
        5,
        PipelineMode::Single,
    )
    .unwrap();
    let double = train_threaded(g, h, cfg, 3, 5, 5, PipelineMode::Double).unwrap();

    for a in 0..single.state.n() {
        assert_eq!(
            single.state.pi_row(a),
            double.state.pi_row(a),
            "pi diverged at vertex {a}"
        );
    }
    assert_eq!(single.state.theta(), double.state.theta(), "theta diverged");
    assert_eq!(
        single.perplexity_trace, double.perplexity_trace,
        "perplexity traces diverged"
    );
}

/// Both pipeline modes at a second seed, `K` and worker count, compared
/// row by row against one reference chain.
#[test]
fn dedup_and_pipeline_combinations_share_one_chain() {
    let (g, h) = setup(13);
    let cfg = SamplerConfig::new(3).with_seed(19);
    let mut reference: Option<Vec<Vec<f32>>> = None;
    for mode in [PipelineMode::Single, PipelineMode::Double] {
        let mut s = DistributedSampler::new(
            g.clone(),
            h.clone(),
            cfg.clone(),
            DistributedConfig::das5(3).with_pipeline(mode),
        )
        .unwrap();
        s.run(5);
        let rows: Vec<Vec<f32>> = (0..s.state().n())
            .map(|a| s.state().pi_row(a).to_vec())
            .collect();
        match &reference {
            None => reference = Some(rows),
            Some(r) => assert_eq!(r, &rows, "mode {mode:?} diverged"),
        }
    }
}
