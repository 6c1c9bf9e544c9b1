//! End-to-end recovery: the sampler must actually find planted structure.

use mmsb::prelude::*;

#[test]
fn recovers_strong_planted_communities() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(10);
    let generated = generate_planted(
        &PlantedConfig {
            num_vertices: 500,
            num_communities: 10,
            mean_community_size: 50.0,
            memberships_per_vertex: 1.0,
            internal_degree: 15.0,
            background_degree: 0.5,
        },
        &mut rng,
    );
    let (train, heldout) = HeldOut::split(&generated.graph, 150, &mut rng);
    let config = SamplerConfig::new(10)
        .with_seed(4)
        .with_minibatch(Strategy::StratifiedNode {
            partitions: 16,
            anchors: 16,
        });
    let mut sampler = ParallelSampler::new(train, heldout, config).unwrap();

    let initial = sampler.evaluate_perplexity();
    sampler.run(2500);
    // Fresh-state perplexity must have improved markedly over random init.
    let trained = sampler.evaluate_perplexity();
    assert!(
        trained < 0.7 * initial,
        "perplexity barely moved: {initial} -> {trained}"
    );

    let f1 = eval::best_match_f1(&sampler.communities(0.1).members, &generated.ground_truth);
    assert!(f1 > 0.35, "community recovery too weak: F1 = {f1:.3}");
}

#[test]
fn perplexity_trace_plateaus_eventually() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(20);
    let generated = generate_planted(
        &PlantedConfig {
            num_vertices: 300,
            num_communities: 6,
            mean_community_size: 50.0,
            memberships_per_vertex: 1.0,
            internal_degree: 14.0,
            background_degree: 0.5,
        },
        &mut rng,
    );
    let (train, heldout) = HeldOut::split(&generated.graph, 100, &mut rng);
    let config = SamplerConfig::new(6)
        .with_seed(8)
        .with_minibatch(Strategy::StratifiedNode {
            partitions: 8,
            anchors: 16,
        });
    let mut sampler = ParallelSampler::new(train, heldout, config).unwrap();
    let mut detector = PlateauDetector::new(4, 0.01);
    let mut converged_at = None;
    for round in 0..40 {
        sampler.run(150);
        let perplexity = sampler.evaluate_perplexity();
        if detector.record(perplexity) {
            converged_at = Some(round);
            break;
        }
    }
    assert!(
        converged_at.is_some(),
        "no plateau after {} evaluations: {:?}",
        detector.len(),
        detector.history()
    );
}

#[test]
fn overlap_is_recovered_not_just_partitions() {
    // Vertices planted in two communities should end up with meaningful
    // mass in more than one inferred community more often than
    // single-membership vertices do.
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(30);
    let generated = generate_planted(
        &PlantedConfig {
            num_vertices: 400,
            num_communities: 8,
            mean_community_size: 70.0,
            memberships_per_vertex: 1.4,
            internal_degree: 16.0,
            background_degree: 0.3,
        },
        &mut rng,
    );
    let truth_memberships = generated
        .ground_truth
        .memberships(generated.graph.num_vertices());
    let (train, heldout) = HeldOut::split(&generated.graph, 120, &mut rng);
    // The overlap-vs-single margin this test asserts is only a fraction
    // of a percent for this seed, so pin the exact chain by forcing the
    // scalar backend; SIMD chains get their own statistical end-to-end
    // coverage in `simd_smoke` with tolerance-based assertions.
    let config = SamplerConfig::new(8)
        .with_seed(12)
        .with_simd(SimdPolicy::Force(Backend::Scalar))
        .with_minibatch(Strategy::StratifiedNode {
            partitions: 16,
            anchors: 16,
        });
    let mut sampler = ParallelSampler::new(train, heldout, config).unwrap();
    sampler.run(2500);

    let detected = sampler.communities(0.1);
    let detected_memberships = detected.memberships(generated.graph.num_vertices());
    let mut overlap_truth = 0usize;
    let mut overlap_truth_detected = 0usize;
    let mut single_truth = 0usize;
    let mut single_truth_detected = 0usize;
    for (t, d) in truth_memberships.iter().zip(&detected_memberships) {
        if t.len() > 1 {
            overlap_truth += 1;
            if d.len() > 1 {
                overlap_truth_detected += 1;
            }
        } else if t.len() == 1 {
            single_truth += 1;
            if d.len() > 1 {
                single_truth_detected += 1;
            }
        }
    }
    let rate_overlap = overlap_truth_detected as f64 / overlap_truth.max(1) as f64;
    let rate_single = single_truth_detected as f64 / single_truth.max(1) as f64;
    assert!(
        rate_overlap > rate_single,
        "overlap not preferentially recovered: {rate_overlap:.3} vs {rate_single:.3}"
    );
}
