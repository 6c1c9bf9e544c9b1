//! The SVI sampler.

use crate::digamma;
use mmsb_core::{link_probability, PerplexityAccumulator};
use mmsb_graph::heldout::HeldOut;
use mmsb_graph::minibatch::{MinibatchSampler, Strategy};
use mmsb_graph::Graph;
use mmsb_rand::dist::{Gamma, Sample};
use mmsb_rand::Xoshiro256PlusPlus;

/// SVI hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SviConfig {
    /// Number of communities `K`.
    pub k: usize,
    /// Dirichlet prior `alpha` (default `1/K`).
    pub alpha: f64,
    /// Beta prior `(eta0, eta1)`.
    pub eta: (f64, f64),
    /// Inter-community link probability `delta`.
    pub delta: f64,
    /// Learning-rate offset `tau` in `rho_t = (tau + t)^(-kappa)`.
    pub tau: f64,
    /// Learning-rate decay `kappa` in `(0.5, 1]`.
    pub kappa: f64,
    /// Mini-batch strategy.
    pub minibatch: Strategy,
    /// RNG seed.
    pub seed: u64,
}

impl SviConfig {
    /// Defaults following Gopalan et al.: `tau = 1024`, `kappa = 0.5 +`
    /// a bit, stratified mini-batches.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            alpha: 1.0 / k.max(1) as f64,
            eta: (1.0, 1.0),
            delta: 1e-5,
            tau: 1024.0,
            kappa: 0.55,
            minibatch: Strategy::StratifiedNode {
                partitions: 32,
                anchors: 32,
            },
            seed: 42,
        }
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the mini-batch strategy.
    pub fn with_minibatch(mut self, strategy: Strategy) -> Self {
        self.minibatch = strategy;
        self
    }
}

/// Mean-field stochastic variational inference for a-MMSB.
pub struct SviSampler {
    graph: Graph,
    heldout: HeldOut,
    config: SviConfig,
    /// `N x K` Dirichlet parameters.
    gamma: Vec<f64>,
    /// `K x 2` Beta parameters (`lambda[2k]` = non-link, `lambda[2k+1]` =
    /// link), matching `mmsb-core`'s theta layout.
    lambda: Vec<f64>,
    minibatch: MinibatchSampler,
    rng: Xoshiro256PlusPlus,
    perplexity: PerplexityAccumulator,
    iteration: u64,
    /// Cached `E[pi]` rows (f32, `N x K`), refreshed lazily.
    pi_cache: Vec<f32>,
    pi_dirty: bool,
}

impl SviSampler {
    /// Build an SVI sampler over a training graph and held-out set.
    ///
    /// # Panics
    /// Panics on degenerate configurations (`k == 0`, tiny graphs).
    pub fn new(graph: Graph, heldout: HeldOut, config: SviConfig) -> Self {
        assert!(config.k > 0, "k must be at least 1");
        assert!(graph.num_vertices() >= 2, "graph too small");
        assert!(
            config.kappa > 0.5 && config.kappa <= 1.0,
            "kappa must lie in (0.5, 1]"
        );
        let n = graph.num_vertices() as usize;
        let k = config.k;
        let mut rng = Xoshiro256PlusPlus::stream(config.seed, 7);
        // Initialize gamma from the prior (same symmetry-breaking argument
        // as the MCMC sampler) and lambda from the Beta prior.
        let g_alpha = Gamma::new(config.alpha, 1.0).expect("positive alpha");
        let gamma: Vec<f64> = (0..n * k)
            .map(|_| config.alpha + g_alpha.sample(&mut rng))
            .collect();
        let g_eta0 = Gamma::new(config.eta.0, 1.0).expect("positive eta0");
        let g_eta1 = Gamma::new(config.eta.1, 1.0).expect("positive eta1");
        let mut lambda = vec![0.0f64; 2 * k];
        for c in 0..k {
            lambda[2 * c] = config.eta.0 + g_eta0.sample(&mut rng);
            lambda[2 * c + 1] = config.eta.1 + g_eta1.sample(&mut rng);
        }
        let perplexity = PerplexityAccumulator::new(heldout.len());
        Self {
            minibatch: MinibatchSampler::new(config.minibatch),
            graph,
            heldout,
            config,
            gamma,
            lambda,
            rng,
            perplexity,
            iteration: 0,
            pi_cache: vec![0.0; n * k],
            pi_dirty: true,
        }
    }

    /// The Robbins–Monro rate at the current iteration.
    pub fn rho(&self) -> f64 {
        (self.config.tau + self.iteration as f64).powf(-self.config.kappa)
    }

    /// One SVI iteration: local step over a mini-batch, natural-gradient
    /// global step.
    pub fn step(&mut self) {
        let k = self.config.k;
        let n = self.graph.num_vertices() as f64;
        let mb = self
            .minibatch
            .sample(&self.graph, Some(&self.heldout), &mut self.rng);
        if mb.is_empty() {
            self.iteration += 1;
            return;
        }

        // Pre-compute digamma expectations for the touched vertices and
        // the global Beta parameters.
        let e_log_beta: Vec<(f64, f64)> = (0..k)
            .map(|c| {
                let s = digamma(self.lambda[2 * c] + self.lambda[2 * c + 1]);
                (
                    digamma(self.lambda[2 * c]) - s,     // E[log(1 - beta)]
                    digamma(self.lambda[2 * c + 1]) - s, // E[log beta]
                )
            })
            .collect();

        let e_log_pi = |gamma: &[f64], a: u32| -> Vec<f64> {
            let row = &gamma[a as usize * k..(a as usize + 1) * k];
            let s = digamma(row.iter().sum());
            row.iter().map(|&g| digamma(g) - s).collect()
        };

        // Local step: responsibilities phi_ab(k) for "both in k".
        // BTreeMap, not HashMap: the natural-step loop below iterates this
        // map, and std HashMap order is seeded per process — ordered
        // iteration keeps the gamma update bitwise deterministic.
        let mut gamma_stats = std::collections::BTreeMap::<u32, Vec<f64>>::new();
        let mut lambda_stats = vec![0.0f64; 2 * k];
        for (&(e, y), &w) in mb.pairs.iter().zip(&mb.weights) {
            let (a, b) = (e.lo().0, e.hi().0);
            let ea = e_log_pi(&self.gamma, a);
            let eb = e_log_pi(&self.gamma, b);
            let log_other = if y {
                self.config.delta.ln()
            } else {
                (1.0 - self.config.delta).ln()
            };
            // Log-space softmax over K same-community cells + 1 "other".
            let mut logits = Vec::with_capacity(k + 1);
            for c in 0..k {
                let lb = if y { e_log_beta[c].1 } else { e_log_beta[c].0 };
                logits.push(ea[c] + eb[c] + lb);
            }
            logits.push(log_other);
            let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let denom: f64 = logits.iter().map(|&l| (l - max).exp()).sum();
            let phi: Vec<f64> = logits[..k]
                .iter()
                .map(|&l| (l - max).exp() / denom)
                .collect();

            for (c, &p) in phi.iter().enumerate() {
                let idx = if y { 2 * c + 1 } else { 2 * c };
                lambda_stats[idx] += w * p;
            }
            let ga = gamma_stats.entry(a).or_insert_with(|| vec![0.0; k]);
            for (s, &p) in ga.iter_mut().zip(&phi) {
                *s += p;
            }
            let gb = gamma_stats.entry(b).or_insert_with(|| vec![0.0; k]);
            for (s, &p) in gb.iter_mut().zip(&phi) {
                *s += p;
            }
        }

        // Global step (natural gradient).
        let rho = self.rho();
        for (a, stats) in gamma_stats {
            // Each vertex saw `seen` of its N-1 pairs; scale to the full
            // neighborhood (the standard SVI per-node scaling).
            let seen: f64 = stats.iter().sum::<f64>().max(1e-12);
            let scale = (n - 1.0) / seen.max(1.0);
            let row = &mut self.gamma[a as usize * k..(a as usize + 1) * k];
            for (g, &s) in row.iter_mut().zip(&stats) {
                let target = self.config.alpha + scale * s;
                *g = (1.0 - rho) * *g + rho * target;
            }
        }
        for c in 0..k {
            for i in 0..2 {
                let prior = if i == 0 {
                    self.config.eta.0
                } else {
                    self.config.eta.1
                };
                let target = prior + lambda_stats[2 * c + i];
                let l = &mut self.lambda[2 * c + i];
                *l = (1.0 - rho) * *l + rho * target;
            }
        }
        self.pi_dirty = true;
        self.iteration += 1;
    }

    /// Run `iterations` steps.
    pub fn run(&mut self, iterations: u64) {
        for _ in 0..iterations {
            self.step();
        }
    }

    fn refresh_pi(&mut self) {
        if !self.pi_dirty {
            return;
        }
        let k = self.config.k;
        for a in 0..self.graph.num_vertices() as usize {
            let row = &self.gamma[a * k..(a + 1) * k];
            let s: f64 = row.iter().sum();
            for (out, &g) in self.pi_cache[a * k..(a + 1) * k].iter_mut().zip(row) {
                *out = (g / s) as f32;
            }
        }
        self.pi_dirty = false;
    }

    /// Posterior-mean community strengths `E[beta_k]`.
    pub fn beta_mean(&self) -> Vec<f64> {
        (0..self.config.k)
            .map(|c| self.lambda[2 * c + 1] / (self.lambda[2 * c] + self.lambda[2 * c + 1]))
            .collect()
    }

    /// Posterior-mean membership row `E[pi_a]`.
    pub fn pi_row(&mut self, a: u32) -> &[f32] {
        self.refresh_pi();
        let k = self.config.k;
        &self.pi_cache[a as usize * k..(a as usize + 1) * k]
    }

    /// Held-out perplexity under the posterior means, folded into the same
    /// running average as the MCMC samplers (Eq. 7 of the paper).
    pub fn evaluate_perplexity(&mut self) -> f64 {
        self.refresh_pi();
        let beta = self.beta_mean();
        let k = self.config.k;
        let probs: Vec<f64> = self
            .heldout
            .pairs()
            .iter()
            .map(|&(e, y)| {
                let pa = &self.pi_cache[e.lo().index() * k..(e.lo().index() + 1) * k];
                let pb = &self.pi_cache[e.hi().index() * k..(e.hi().index() + 1) * k];
                link_probability(pa, pb, &beta, self.config.delta, y)
            })
            .collect();
        self.perplexity.record(&probs);
        self.perplexity.value().expect("just recorded a sample")
    }

    /// Completed iterations.
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// Extract communities by thresholding `E[pi]`.
    pub fn communities(&mut self, threshold: f32) -> Vec<Vec<mmsb_graph::VertexId>> {
        self.refresh_pi();
        let k = self.config.k;
        let mut members = vec![Vec::new(); k];
        for a in 0..self.graph.num_vertices() {
            let row = &self.pi_cache[a as usize * k..(a as usize + 1) * k];
            for (c, &p) in row.iter().enumerate() {
                if p > threshold {
                    members[c].push(mmsb_graph::VertexId(a));
                }
            }
        }
        members
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};

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

    #[test]
    fn runs_and_keeps_parameters_positive() {
        let (g, h) = setup(1);
        let mut s = SviSampler::new(g, h, SviConfig::new(4).with_seed(2));
        s.run(100);
        assert_eq!(s.iteration(), 100);
        assert!(s.gamma.iter().all(|&g| g > 0.0 && g.is_finite()));
        assert!(s.lambda.iter().all(|&l| l > 0.0 && l.is_finite()));
        for b in s.beta_mean() {
            assert!(b > 0.0 && b < 1.0);
        }
    }

    #[test]
    fn rho_decays() {
        let (g, h) = setup(2);
        let mut s = SviSampler::new(g, h, SviConfig::new(4));
        let r0 = s.rho();
        s.run(500);
        assert!(s.rho() < r0);
    }

    #[test]
    fn pi_rows_normalized() {
        let (g, h) = setup(3);
        let mut s = SviSampler::new(g, h, SviConfig::new(4).with_seed(5));
        s.run(50);
        for a in 0..200 {
            let sum: f32 = s.pi_row(a).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "vertex {a} sum {sum}");
        }
    }

    #[test]
    fn perplexity_is_finite_and_improves_over_random() {
        let (g, h) = setup(4);
        let mut s = SviSampler::new(g, h, SviConfig::new(4).with_seed(6));
        let before = s.evaluate_perplexity();
        assert!(before.is_finite() && before > 1.0);
        s.run(800);
        let mut after = before;
        for _ in 0..3 {
            after = s.evaluate_perplexity();
        }
        assert!(after.is_finite());
    }

    #[test]
    fn deterministic_given_seed() {
        let (g, h) = setup(5);
        let mut a = SviSampler::new(g.clone(), h.clone(), SviConfig::new(3).with_seed(9));
        let mut b = SviSampler::new(g, h, SviConfig::new(3).with_seed(9));
        a.run(20);
        b.run(20);
        assert_eq!(a.lambda, b.lambda);
        assert_eq!(a.gamma, b.gamma);
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn zero_k_panics() {
        let (g, h) = setup(6);
        SviSampler::new(g, h, SviConfig::new(0));
    }
}
