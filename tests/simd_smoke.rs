//! Scalar-vs-SIMD end-to-end smoke train.
//!
//! The SIMD backends are a different *rounding* of the same kernels —
//! fused multiply-adds and a lane-strided reduction order instead of the
//! scalar backend's one unfused lane summing left to right — so their
//! chains diverge from the scalar chain in final digits, not in behavior. This test pins the
//! statistical contract the bitwise suites can't: a short train under
//! the widest detected backend must learn the same model, with held-out
//! perplexity landing within a tight tolerance of the scalar run.

use mmsb::prelude::*;

#[test]
fn simd_train_matches_scalar_statistically() {
    let widest = Backend::detect();
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(77);
    let generated = generate_planted(
        &PlantedConfig {
            num_vertices: 300,
            num_communities: 6,
            mean_community_size: 55.0,
            memberships_per_vertex: 1.2,
            internal_degree: 12.0,
            background_degree: 0.5,
        },
        &mut rng,
    );
    let (train, heldout) = HeldOut::split(&generated.graph, 90, &mut rng);

    let mut ppx = Vec::new();
    let mut initial = Vec::new();
    for backend in [Backend::Scalar, widest] {
        let config = SamplerConfig::new(6)
            .with_seed(5)
            .with_simd(SimdPolicy::Force(backend))
            .with_minibatch(Strategy::StratifiedNode {
                partitions: 12,
                anchors: 12,
            });
        let mut sampler = ParallelSampler::new(train.clone(), heldout.clone(), config).unwrap();
        initial.push(sampler.evaluate_perplexity());
        sampler.run(600);
        ppx.push(sampler.evaluate_perplexity());
    }

    // Same model state at iteration 0 regardless of backend, so the
    // starting perplexities must agree bitwise.
    assert_eq!(
        initial[0].to_bits(),
        initial[1].to_bits(),
        "initial perplexity depends on the backend: {} vs {}",
        initial[0],
        initial[1]
    );

    // Both chains must actually learn...
    for (backend, (&p0, &p1)) in [Backend::Scalar, widest]
        .iter()
        .zip(initial.iter().zip(&ppx))
    {
        assert!(
            p1 < 0.8 * p0,
            "{backend}: perplexity barely moved: {p0} -> {p1}"
        );
    }

    // ...and land in the same place. The chains decorrelate after a few
    // hundred iterations (each FMA rounding difference reseeds the
    // trajectory), so this is a statistical bound, not a numeric one:
    // converged perplexity on this planted graph is stable to a few
    // percent across seeds, and a kernel bug (dropped neighbor, wrong
    // sign plane, bad normalization) moves it far more than that.
    let (scalar, simd) = (ppx[0], ppx[1]);
    let rel = (scalar - simd).abs() / scalar;
    assert!(
        rel < 0.05,
        "scalar ({scalar}) and {widest} ({simd}) trains diverged by {:.1}%",
        rel * 100.0
    );
}
