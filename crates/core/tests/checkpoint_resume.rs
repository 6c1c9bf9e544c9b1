//! Kill-and-resume: a run restored from an on-disk checkpoint must
//! continue the *bitwise-identical* chain the uninterrupted run produced
//! (on the simulated cluster and on the pool driver alike), and the
//! checkpoint format must reject corruption and stay stable.

use mmsb_core::{
    Checkpoint, CheckpointError, CoreError, DistributedConfig, DistributedSampler, ParallelSampler,
    SamplerConfig, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
};
use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};
use mmsb_graph::heldout::HeldOut;
use mmsb_graph::Graph;
use mmsb_rand::Xoshiro256PlusPlus;
use std::path::PathBuf;

fn setup(seed: u64) -> (Graph, HeldOut) {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let gen = generate_planted(
        &PlantedConfig {
            num_vertices: 100,
            num_communities: 3,
            mean_community_size: 38.0,
            memberships_per_vertex: 1.1,
            internal_degree: 8.0,
            background_degree: 0.5,
        },
        &mut rng,
    );
    HeldOut::split(&gen.graph, 30, &mut rng)
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mmsb-{}-{name}", std::process::id()))
}

#[test]
fn kill_and_resume_is_bitwise_identical() {
    let (g, h) = setup(11);
    let cfg = SamplerConfig::new(3).with_seed(9);
    let dcfg = DistributedConfig::das5(4);

    // The uninterrupted reference: 6 iterations, eval, 6 more, eval.
    let mut full = DistributedSampler::new(g.clone(), h.clone(), cfg.clone(), dcfg).unwrap();
    full.run(6);
    full.evaluate_perplexity();
    full.run(6);
    let p_full = full.evaluate_perplexity();

    // The killed run: same schedule up to the checkpoint, then "killed".
    let path = temp_path("resume.ckpt");
    {
        let mut first = DistributedSampler::new(g.clone(), h.clone(), cfg.clone(), dcfg).unwrap();
        first.run(6);
        first.evaluate_perplexity();
        first.checkpoint().save(&path).unwrap();
        // The process dies here; everything in memory is lost.
    }

    // The resumed run continues from disk.
    let loaded = Checkpoint::load(&path).unwrap();
    assert_eq!(loaded.iteration(), 6);
    let mut resumed =
        DistributedSampler::resume(g.clone(), h.clone(), cfg.clone(), dcfg, &loaded).unwrap();
    assert_eq!(resumed.iteration(), 6);
    resumed.run(6);
    let p_resumed = resumed.evaluate_perplexity();

    for a in 0..full.state().n() {
        assert_eq!(
            full.state().pi_row(a),
            resumed.state().pi_row(a),
            "pi diverged at vertex {a}"
        );
    }
    assert_eq!(
        full.state().theta(),
        resumed.state().theta(),
        "theta diverged"
    );
    assert_eq!(
        p_full.to_bits(),
        p_resumed.to_bits(),
        "perplexity diverged: {p_full} vs {p_resumed}"
    );

    // The pool driver restored from the same file continues the same
    // bytes: the simulated cluster's chain is the pool driver's.
    let mut pool = ParallelSampler::with_threads(g, h, cfg, 2).unwrap();
    pool.restore(&loaded).unwrap();
    pool.run(6);
    let p_pool = pool.evaluate_perplexity();
    assert!(
        pool.checkpoint().to_bytes() == full.checkpoint().to_bytes(),
        "the restored pool driver left the chain"
    );
    assert_eq!(p_full.to_bits(), p_pool.to_bits(), "perplexity diverged");
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupting_one_byte_fails_the_checksum() {
    let (g, h) = setup(12);
    let cfg = SamplerConfig::new(3).with_seed(4);
    let mut s = DistributedSampler::new(g, h, cfg, DistributedConfig::das5(2)).unwrap();
    s.run(3);
    let bytes = s.checkpoint().to_bytes();

    // Flip one byte in the middle of the state payload.
    let mut bad = bytes.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x01;
    assert!(
        matches!(
            Checkpoint::from_bytes(&bad),
            Err(CheckpointError::ChecksumMismatch)
        ),
        "single flipped byte must fail the checksum"
    );

    // The pristine bytes still load.
    let back = Checkpoint::from_bytes(&bytes).unwrap();
    assert_eq!(back.iteration(), 3);
}

#[test]
fn format_header_is_stable() {
    // Golden-file test for the on-disk layout: the first bytes are the
    // magic, the version, the layout tag, and the vertex count — all at
    // fixed offsets. Breaking this breaks every old checkpoint.
    let (g, h) = setup(13);
    let n = g.num_vertices();
    let cfg = SamplerConfig::new(3).with_seed(2);
    let s = DistributedSampler::new(g, h, cfg, DistributedConfig::das5(2)).unwrap();
    let bytes = s.checkpoint().to_bytes();

    assert_eq!(&bytes[..8], &CHECKPOINT_MAGIC, "magic moved");
    assert_eq!(&bytes[..8], b"MMSBCKP1");
    assert_eq!(
        u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
        CHECKPOINT_VERSION
    );
    assert_eq!(bytes[12], 0, "layout tag");
    assert_eq!(u32::from_le_bytes(bytes[13..17].try_into().unwrap()), n);
    assert_eq!(
        u64::from_le_bytes(bytes[17..25].try_into().unwrap()),
        3,
        "k field"
    );
    assert_eq!(
        u64::from_le_bytes(bytes[25..33].try_into().unwrap()),
        2,
        "seed field"
    );
}

#[test]
fn checkpoint_refuses_a_mismatched_sampler() {
    let (g, h) = setup(14);
    let cfg = SamplerConfig::new(3).with_seed(5);
    let dcfg = DistributedConfig::das5(2);
    let s = DistributedSampler::new(g.clone(), h.clone(), cfg.clone(), dcfg).unwrap();
    let ck = s.checkpoint();

    // Same everything but the seed: a different chain, refuse to splice.
    let other = cfg.with_seed(6);
    let err = match DistributedSampler::resume(g, h, other, dcfg, &ck) {
        Ok(_) => panic!("mismatched seed must be rejected"),
        Err(e) => e,
    };
    assert!(
        matches!(err, CoreError::Checkpoint(CheckpointError::Mismatch { .. })),
        "got {err}"
    );
}

#[test]
fn save_and_load_roundtrip_via_disk() {
    let (g, h) = setup(15);
    let cfg = SamplerConfig::new(3).with_seed(8);
    let mut s = DistributedSampler::new(g, h, cfg, DistributedConfig::das5(2)).unwrap();
    s.run(2);
    let ck = s.checkpoint();
    let path = temp_path("roundtrip.ckpt");
    ck.save(&path).unwrap();
    let back = Checkpoint::load(&path).unwrap();
    assert_eq!(back, ck);
    std::fs::remove_file(&path).ok();

    assert!(matches!(
        Checkpoint::load(&temp_path("does-not-exist.ckpt")),
        Err(CheckpointError::Io(_))
    ));
}
