//! The sampler drivers and their shared engine.
//!
//! All drivers execute the *staged* algorithm: within one iteration, every
//! `phi` update reads the state as of the iteration's start, updates are
//! applied together at the stage boundary, and the `theta` update then
//! reads the fresh `pi` (the barrier structure of paper §III-C). The pool
//! driver at one thread is the reference; more threads and the two
//! master–worker drivers must reproduce its chain. Each stage has one
//! implementation ([`stage`]), whatever the driver.

pub mod distributed;
pub mod parallel;
pub mod threaded;

mod driver;
pub(crate) mod engine;
pub(crate) mod stage;
mod worker;

pub(crate) use engine::Engine;

/// The contract of the sequential execution — [`parallel::ParallelSampler`]
/// at one thread — checked at one thread and again at four, where every
/// assertion must hold unchanged. (The module path is the one these tests
/// had while the one-thread spelling was a type of its own.)
#[cfg(test)]
mod sequential {
    mod tests {
        use crate::{ParallelSampler, SamplerConfig};
        use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};
        use mmsb_graph::heldout::HeldOut;
        use mmsb_graph::Graph;
        use mmsb_rand::Xoshiro256PlusPlus;

        const THREADS: [usize; 2] = [1, 4];

        fn setup(seed: u64) -> (Graph, HeldOut) {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
            let gen = generate_planted(
                &PlantedConfig {
                    num_vertices: 200,
                    num_communities: 4,
                    mean_community_size: 55.0,
                    memberships_per_vertex: 1.1,
                    internal_degree: 10.0,
                    background_degree: 0.5,
                },
                &mut rng,
            );
            HeldOut::split(&gen.graph, 60, &mut rng)
        }

        fn sampler(seed: u64, config: SamplerConfig, threads: usize) -> ParallelSampler {
            let (g, h) = setup(seed);
            ParallelSampler::with_threads(g, h, config, threads).unwrap()
        }

        #[test]
        fn steps_advance_and_stay_finite() {
            for threads in THREADS {
                let mut s = sampler(1, SamplerConfig::new(4).with_seed(2), threads);
                s.run(20);
                assert_eq!(s.iteration(), 20);
                for a in 0..s.state().n() {
                    let sum: f32 = s.state().pi_row(a).iter().sum();
                    assert!((sum - 1.0).abs() < 1e-4, "vertex {a} pi sum {sum}");
                }
                assert!(s.state().beta().iter().all(|&b| b > 0.0 && b < 1.0));
            }
        }

        #[test]
        fn perplexity_decreases_with_training() {
            for threads in THREADS {
                let mut s = sampler(3, SamplerConfig::new(4).with_seed(4), threads);
                let before = s.evaluate_perplexity();
                // The running average still holds the random-init sample;
                // it must drop markedly all the same.
                s.run(400);
                let mut after = 0.0;
                for _ in 0..3 {
                    after = s.evaluate_perplexity();
                }
                assert!(
                    after < before,
                    "perplexity should improve: before {before}, after {after}"
                );
            }
        }

        #[test]
        fn same_seed_same_chain() {
            let cfg = SamplerConfig::new(3).with_seed(11);
            let mut s1 = sampler(5, cfg.clone(), 1);
            s1.run(15);
            for threads in THREADS {
                let mut s2 = sampler(5, cfg.clone(), threads);
                s2.run(15);
                assert_eq!(s1.state().theta(), s2.state().theta());
                for a in 0..s1.state().n() {
                    assert_eq!(s1.state().pi_row(a), s2.state().pi_row(a), "vertex {a}");
                }
            }
        }

        #[test]
        fn different_seeds_differ() {
            for threads in THREADS {
                let mut s1 = sampler(6, SamplerConfig::new(3).with_seed(1), threads);
                let mut s2 = sampler(6, SamplerConfig::new(3).with_seed(2), threads);
                s1.run(5);
                s2.run(5);
                assert_ne!(s1.state().theta(), s2.state().theta());
            }
        }

        #[test]
        fn rejects_invalid_config() {
            let (g, h) = setup(7);
            assert!(
                ParallelSampler::with_threads(g.clone(), h.clone(), SamplerConfig::new(0), 1)
                    .is_err()
            );
            assert!(ParallelSampler::with_threads(g, h, SamplerConfig::new(3), 0).is_err());
        }

        #[test]
        fn communities_extractable_after_training() {
            for threads in THREADS {
                let mut s = sampler(8, SamplerConfig::new(4).with_seed(3), threads);
                s.run(50);
                assert_eq!(s.communities(0.25).num_communities(), 4);
            }
        }
    }
}
