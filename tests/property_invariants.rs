//! Cross-crate property tests: invariants that must hold for *arbitrary*
//! valid inputs, not just the unit-test fixtures. Each test draws its
//! random cases from a fixed-seed Xoshiro stream, so failures reproduce
//! exactly.

use mmsb::netsim::collective;
use mmsb::prelude::*;

/// The sampler state stays on the simplex for any small-but-valid
/// configuration and any seed.
#[test]
fn sampler_state_stays_on_simplex() {
    let mut meta = Xoshiro256PlusPlus::seed_from_u64(0xA1);
    for case in 0..16 {
        let seed = meta.below(1000);
        let k = 2 + meta.below(4) as usize;
        let iters = 1 + meta.below(11);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let generated = generate_planted(
            &PlantedConfig {
                num_vertices: 80,
                num_communities: k,
                mean_community_size: 80.0 / k as f64,
                memberships_per_vertex: 1.0,
                internal_degree: 6.0,
                background_degree: 1.0,
            },
            &mut rng,
        );
        let (train, heldout) = HeldOut::split(&generated.graph, 15, &mut rng);
        let cfg = SamplerConfig::new(k)
            .with_seed(seed)
            .with_minibatch(Strategy::StratifiedNode {
                partitions: 4,
                anchors: 2,
            })
            .with_neighbor_sample(8);
        let mut s = ParallelSampler::with_threads(train, heldout, cfg, 1).unwrap();
        s.run(iters);
        for a in 0..s.state().n() {
            let row = s.state().pi_row(a);
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-3, "case {case} vertex {a} sum {sum}");
            assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)), "case {case}");
        }
        for &b in s.state().beta() {
            assert!(b > 0.0 && b < 1.0, "case {case} beta {b}");
        }
        let perp = s.evaluate_perplexity();
        assert!(perp.is_finite() && perp >= 1.0, "case {case}");
    }
}

/// Mini-batch weights always align with pairs and are positive, for
/// both strategies and any seed.
#[test]
fn minibatch_weights_align() {
    use mmsb::graph::minibatch::MinibatchSampler;
    let mut meta = Xoshiro256PlusPlus::seed_from_u64(0xA2);
    for case in 0..32 {
        let seed = meta.below(500);
        let anchors = 1 + meta.below(5) as usize;
        let partitions = 1 + meta.below(7) as usize;
        let pair_size = 1 + meta.below(63) as usize;
        let stratified = meta.below(2) == 0;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let generated = generate_planted(
            &PlantedConfig {
                num_vertices: 60,
                num_communities: 3,
                mean_community_size: 20.0,
                memberships_per_vertex: 1.0,
                internal_degree: 5.0,
                background_degree: 1.0,
            },
            &mut rng,
        );
        let strategy = if stratified {
            Strategy::StratifiedNode {
                partitions,
                anchors,
            }
        } else {
            Strategy::RandomPair { size: pair_size }
        };
        let mb = MinibatchSampler::new(strategy).sample(&generated.graph, None, &mut rng);
        assert_eq!(mb.pairs.len(), mb.weights.len(), "case {case}");
        assert!(mb.weights.iter().all(|&w| w > 0.0), "case {case}");
        // Every pair's observation matches the graph.
        for &(e, y) in &mb.pairs {
            assert_eq!(y, generated.graph.has_edge(e.lo(), e.hi()), "case {case}");
        }
    }
}

/// Collective cost models: non-negative, and non-decreasing in both
/// rank count (at fixed depth steps) and payload.
#[test]
fn collective_costs_are_monotone() {
    let mut meta = Xoshiro256PlusPlus::seed_from_u64(0xA3);
    let net = NetworkModel::fdr_infiniband();
    for case in 0..64 {
        let ranks = 1 + meta.below(199) as usize;
        let bytes = meta.below(1 << 22) as usize;
        let barrier = collective::barrier;
        assert!(barrier(&net, ranks) >= 0.0, "case {case}");
        assert!(
            barrier(&net, 2 * ranks) >= barrier(&net, ranks),
            "case {case}"
        );
        assert!(
            collective::broadcast(&net, ranks, 2 * bytes)
                >= collective::broadcast(&net, ranks, bytes),
            "case {case}"
        );
        assert!(
            collective::reduce(&net, 2 * ranks, bytes) >= collective::reduce(&net, ranks, bytes),
            "case {case}"
        );
        assert!(
            collective::scatter(&net, ranks + 1, bytes) >= collective::scatter(&net, ranks, bytes),
            "case {case}"
        );
        assert!(
            collective::allreduce(&net, ranks, bytes) >= collective::reduce(&net, ranks, bytes),
            "case {case}"
        );
    }
}

/// Degree histogram always sums to N and respects bucket boundaries.
#[test]
fn degree_histogram_sums_to_n() {
    use mmsb::graph::stats::degree_histogram;
    let mut meta = Xoshiro256PlusPlus::seed_from_u64(0xA4);
    for case in 0..16 {
        let seed = meta.below(500);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let generated = generate_planted(
            &PlantedConfig {
                num_vertices: 120,
                num_communities: 4,
                mean_community_size: 30.0,
                memberships_per_vertex: 1.0,
                internal_degree: 4.0,
                background_degree: 1.0,
            },
            &mut rng,
        );
        let h = degree_histogram(&generated.graph);
        assert_eq!(h.iter().sum::<u64>(), 120, "case {case} seed {seed}");
    }
}

/// Held-out splits never lose or duplicate edges: train edges +
/// held-out links partition the original edge set.
#[test]
fn heldout_split_partitions_edges() {
    let mut meta = Xoshiro256PlusPlus::seed_from_u64(0xA5);
    for case in 0..16 {
        let seed = meta.below(300);
        let links = 1 + meta.below(39) as usize;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let generated = generate_planted(
            &PlantedConfig {
                num_vertices: 100,
                num_communities: 4,
                mean_community_size: 25.0,
                memberships_per_vertex: 1.0,
                internal_degree: 6.0,
                background_degree: 1.0,
            },
            &mut rng,
        );
        let graph = generated.graph;
        if (links as u64) > graph.num_edges() {
            continue;
        }
        let (train, heldout) = HeldOut::split(&graph, links, &mut rng);
        let held_links = heldout.pairs().iter().filter(|&&(_, y)| y).count() as u64;
        assert_eq!(
            train.num_edges() + held_links,
            graph.num_edges(),
            "case {case}"
        );
        // Every training edge exists in the original.
        for e in train.edges() {
            assert!(graph.has_edge(e.lo(), e.hi()), "case {case}");
        }
    }
}

/// The step-size schedule is strictly decreasing and positive.
#[test]
fn step_size_schedule_monotone() {
    let mut meta = Xoshiro256PlusPlus::seed_from_u64(0xA6);
    for case in 0..128 {
        let a = 1e-4 + meta.next_f64() * (1.0 - 1e-4);
        let b = 1.0 + meta.next_f64() * 9999.0;
        let c = 0.51 + meta.next_f64() * 0.49;
        let t = meta.below(100_000);
        let s = StepSize { a, b, c };
        assert!(s.at(t) > 0.0, "case {case}");
        assert!(s.at(t + 1) < s.at(t), "case {case}");
        assert!(s.at(0) <= a + 1e-15, "case {case}");
    }
}

/// Perplexity accumulator: averaging over posterior samples never
/// produces a value outside the per-sample extremes' range.
#[test]
fn perplexity_average_is_bounded_by_extremes() {
    let mut meta = Xoshiro256PlusPlus::seed_from_u64(0xA7);
    for case in 0..64 {
        let draw = |rng: &mut Xoshiro256PlusPlus| -> Vec<f64> {
            (0..5).map(|_| 0.01 + rng.next_f64() * 0.99).collect()
        };
        let probs1 = draw(&mut meta);
        let probs2 = draw(&mut meta);
        let perp_of = |probs: &[f64]| -> f64 {
            let mut acc = PerplexityAccumulator::new(probs.len());
            acc.record(probs);
            acc.value().unwrap()
        };
        let p1 = perp_of(&probs1);
        let p2 = perp_of(&probs2);
        let mut acc = PerplexityAccumulator::new(5);
        acc.record(&probs1);
        acc.record(&probs2);
        let both = acc.value().unwrap();
        // Averaging probabilities before the log (Eq. 7) is at least as
        // optimistic as the worse sample and can beat both (Jensen), but
        // never exceeds the worse one.
        assert!(
            both <= p1.max(p2) + 1e-12,
            "case {case}: both={both} p1={p1} p2={p2}"
        );
    }
}
