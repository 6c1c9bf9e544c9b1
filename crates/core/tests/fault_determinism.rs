//! Determinism under injected faults.
//!
//! The contract of the failure layer: recoverable faults (failed/slow DKV
//! operations, lost/duplicated/delayed messages, stragglers) change the
//! *modeled time* of the run — surfaced as `Phase::Recovery` in the trace
//! — but never the chain. A faulty run's final `theta`/`pi` must be
//! bitwise-identical to the fault-free run under the same sampler seed,
//! and a permanent worker kill must degrade to `R - 1` workers while
//! still reproducing the same chain bit for bit: the worker count decides
//! how the stages are priced, never what they compute. A kill re-prices
//! the steps since its rollback point at `R - 1` workers; it re-runs
//! none, so the `pi` plane is never copied or moved.

use mmsb_core::{DistributedConfig, DistributedSampler, SamplerConfig};
use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};
use mmsb_graph::heldout::HeldOut;
use mmsb_graph::Graph;
use mmsb_netsim::dkv::PipelineMode;
use mmsb_netsim::{FaultConfig, Phase};
use mmsb_rand::Xoshiro256PlusPlus;

fn setup(seed: u64) -> (Graph, HeldOut) {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let gen = generate_planted(
        &PlantedConfig {
            num_vertices: 110,
            num_communities: 3,
            mean_community_size: 40.0,
            memberships_per_vertex: 1.1,
            internal_degree: 8.0,
            background_degree: 0.5,
        },
        &mut rng,
    );
    HeldOut::split(&gen.graph, 36, &mut rng)
}

/// The virtual clock and every phase total of `s`, as bits.
fn price_bits(s: &DistributedSampler) -> (u64, Vec<u64>) {
    let phases = s.report().phases;
    let totals = Phase::ALL.iter().map(|&p| phases.total(p).to_bits());
    (s.virtual_time().to_bits(), totals.collect())
}

fn assert_same_chain(a: &DistributedSampler, b: &DistributedSampler) {
    for v in 0..a.state().n() {
        assert_eq!(
            a.state().pi_row(v),
            b.state().pi_row(v),
            "pi diverged at {v}"
        );
    }
    assert_eq!(a.state().theta(), b.state().theta(), "theta diverged");
}

#[test]
fn transient_faults_cost_time_but_not_values() {
    let (g, h) = setup(21);
    let cfg = SamplerConfig::new(3).with_seed(13);

    let mut clean = DistributedSampler::new(
        g.clone(),
        h.clone(),
        cfg.clone(),
        DistributedConfig::das5(4),
    )
    .unwrap();
    let mut faulty = DistributedSampler::new(
        g,
        h,
        cfg,
        DistributedConfig::das5(4).with_faults(FaultConfig::transient(777)),
    )
    .unwrap();

    clean.run(8);
    faulty.run(8);

    assert_same_chain(&clean, &faulty);
    let pc = clean.evaluate_perplexity();
    let pf = faulty.evaluate_perplexity();
    assert_eq!(
        pc.to_bits(),
        pf.to_bits(),
        "perplexity diverged: {pc} vs {pf}"
    );

    // The faults must have cost something, and the trace must say where.
    let recovery = faulty.report().phases.total(Phase::Recovery);
    assert!(recovery > 0.0, "transient plan produced zero recovery time");
    assert!(faulty.report().phases.count(Phase::Recovery) > 0);
    assert_eq!(clean.report().phases.total(Phase::Recovery), 0.0);
    assert!(
        faulty.virtual_time() > clean.virtual_time(),
        "faulty {} should be slower than clean {}",
        faulty.virtual_time(),
        clean.virtual_time()
    );
}

#[test]
fn fault_schedule_is_reproducible() {
    let (g, h) = setup(22);
    let cfg = SamplerConfig::new(3).with_seed(3);
    let dcfg = DistributedConfig::das5(3).with_faults(FaultConfig::transient(42));

    let mut a = DistributedSampler::new(g.clone(), h.clone(), cfg.clone(), dcfg).unwrap();
    let mut b = DistributedSampler::new(g, h, cfg, dcfg).unwrap();
    a.run(6);
    b.run(6);
    assert_same_chain(&a, &b);
    // The fault decisions are a pure function of the plan seed and the
    // compute they stretch is counted work, so the recovery time — like
    // the rest of the virtual clock — is bitwise reproducible.
    assert_eq!(a.report(), b.report());
    assert_eq!(a.virtual_time().to_bits(), b.virtual_time().to_bits());
    assert!(a.report().phases.total(Phase::Recovery) > 0.0);
}

#[test]
fn killed_worker_degrades_to_survivors_with_the_same_chain() {
    let (g, h) = setup(23);
    let cfg = SamplerConfig::new(3).with_seed(17);

    let mut clean = DistributedSampler::new(
        g.clone(),
        h.clone(),
        cfg.clone(),
        DistributedConfig::das5(4),
    )
    .unwrap();
    // Worker 2 dies permanently at the start of iteration 5; the step
    // since the iteration-4 rollback point is re-priced on 3 workers,
    // and the run continues there.
    let faults = FaultConfig::none(5).with_kill(5, 2);
    let mut killed =
        DistributedSampler::new(g, h, cfg, DistributedConfig::das5(4).with_faults(faults))
            .unwrap()
            .with_checkpoint_every(2);
    let plane = killed.state().pi_row(0).as_ptr();

    clean.run(10);
    killed.run(10);

    assert_eq!(killed.workers(), 3, "did not degrade to R - 1 workers");
    assert_eq!(killed.lost_worker(), Some(2));
    assert_eq!(
        killed.iteration(),
        10,
        "a kill must not change the step count"
    );
    assert_same_chain(&clean, &killed);
    assert_eq!(
        killed.state().pi_row(0).as_ptr(),
        plane,
        "the pi plane moved"
    );
    // The price of the replay the cluster models, recorded at commit
    // 53714e8, whose sampler still rewound to a checkpoint and re-ran it.
    let totals = [
        0x3f29d59d8e984a14,
        0x3f18811c101cc981,
        0x3ef20d9ff46cb66c,
        0x3f641d38a00497be,
        0x3eda40f06c212194,
        0x3f16622d63c903f2,
        0x3f3f41f111be5246,
        0x0000000000000000,
        0x3f2f24887584e759,
        0x3ed0cd66ab9a5320,
        0x3f847ebf55478cb9,
    ];
    assert_eq!(price_bits(&killed), (0x3f8b339e42db7398, totals.to_vec()));

    let p = killed.evaluate_perplexity();
    assert!(
        p.is_finite() && p > 1.0,
        "degraded run broke perplexity: {p}"
    );
    assert_eq!(p.to_bits(), clean.evaluate_perplexity().to_bits());
    assert!(killed.report().phases.total(Phase::Recovery) > 0.0);
    assert_eq!(clean.workers(), 4);
}

#[test]
fn kill_without_checkpoint_cadence_rewinds_to_construction() {
    let (g, h) = setup(24);
    let cfg = SamplerConfig::new(3).with_seed(29);
    let mut clean = DistributedSampler::new(
        g.clone(),
        h.clone(),
        cfg.clone(),
        DistributedConfig::das5(3),
    )
    .unwrap();
    // No with_checkpoint_every: the rollback point is construction, so
    // the kill re-prices the whole prefix.
    let mut killed = DistributedSampler::new(
        g,
        h,
        cfg,
        DistributedConfig::das5(3).with_faults(FaultConfig::none(1).with_kill(3, 0)),
    )
    .unwrap();
    let plane = killed.state().pi_row(0).as_ptr();
    clean.run(6);
    killed.run(6);
    assert_eq!(killed.workers(), 2);
    assert_eq!(killed.iteration(), 6);
    assert_same_chain(&clean, &killed);
    assert_eq!(
        killed.state().pi_row(0).as_ptr(),
        plane,
        "the pi plane moved"
    );
    // Recorded at commit 53714e8, which re-ran the prefix.
    let totals = [
        0x3f2682537afe0262,
        0x3f0c55d62a78ae9e,
        0x3ef55cec3691b5bb,
        0x3f62bfc3ad71f13c,
        0x3edf111c7ff40156,
        0x3f13f23cf4747134,
        0x3f3c899919cf7146,
        0x0000000000000000,
        0x3f24c305a3adef91,
        0x3ed500c05680e860,
        0x3f847d7550bf0f4f,
    ];
    assert_eq!(price_bits(&killed), (0x3f8a989417021f06, totals.to_vec()));
    let (pc, pk) = (clean.evaluate_perplexity(), killed.evaluate_perplexity());
    assert_eq!(
        pc.to_bits(),
        pk.to_bits(),
        "perplexity diverged: {pc} vs {pk}"
    );
}

#[test]
fn invalid_kill_targets_are_rejected() {
    let (g, h) = setup(25);
    let cfg = SamplerConfig::new(3);
    // Kill rank out of range.
    assert!(DistributedSampler::new(
        g.clone(),
        h.clone(),
        cfg.clone(),
        DistributedConfig::das5(2).with_faults(FaultConfig::none(1).with_kill(0, 5)),
    )
    .is_err());
    // Killing the only worker leaves nothing to degrade to.
    assert!(DistributedSampler::new(
        g,
        h,
        cfg,
        DistributedConfig::das5(1).with_faults(FaultConfig::none(1).with_kill(0, 0)),
    )
    .is_err());
}

/// The fault-free price in both pipeline modes at 1 and 8 workers: the
/// virtual clock and every phase total after 8 steps and one held-out
/// evaluation, as bits, recorded at commit 34c233c. Any drift in the
/// price of a clean step fails here.
#[test]
fn fault_free_clock_is_pinned() {
    let (g, h) = setup(26);
    let cfg = SamplerConfig::new(4).with_seed(31);
    let shared_1 = [
        0x3f241a6e5f3bf73d,
        0x3ef9791634be161a,
        0x3f04d246226fba7f,
        0x3f03f453a46cdc4c,
        0x3ef42fa7ca9b2e4c,
        0x3ebfd1aba07974e9,
        0x3f083abcb9ce3279,
        0x3ec6403dfb231196,
        0x3f127476ca61b881,
    ];
    let shared_8 = [
        0x3f241a6e5f3bf73d,
        0x3f239f2d6b874bcd,
        0x3ed5e7924ab3b0f8,
        0x3f4f0a87427f0091,
        0x3ec53c7e3554d37c,
        0x3f02684de9c2ad3c,
        0x3f3338d4e99f94c8,
        0x3efaa2719d8a5964,
        0x3f327476ca61b881,
    ];
    // (workers, mode, clock, phase totals: the first nine, then
    // prefetch and recovery).
    let cases = [
        (1, PipelineMode::Single, 0x3f39eb31fa90d748, shared_1, 0),
        (
            1,
            PipelineMode::Double,
            0x3f338f64450b918c,
            shared_1,
            0x3ef18bf5ecd41834,
        ),
        (8, PipelineMode::Single, 0x3f5ee5bf173bc730, shared_8, 0),
        (8, PipelineMode::Double, 0x3f59ee8b9de35ecd, shared_8, 0),
    ];
    for (workers, mode, clock, shared, prefetch) in cases {
        let dcfg = DistributedConfig::das5(workers).with_pipeline(mode);
        let mut s = DistributedSampler::new(g.clone(), h.clone(), cfg.clone(), dcfg).unwrap();
        s.run(8);
        s.evaluate_perplexity();
        let totals = [&shared[..], &[prefetch, 0]].concat();
        assert_eq!(
            price_bits(&s),
            (clock, totals),
            "{workers} workers, {mode:?}"
        );
    }
}
