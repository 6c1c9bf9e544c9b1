//! Chung–Lu power-law background generator.
//!
//! Social graphs have heavy-tailed degree distributions; the planted
//! generator's Erdős–Rényi noise does not. This generator draws edges with
//! endpoint probabilities proportional to prescribed weights `w_i ~ i^{-1/(gamma-1)}`
//! (a Zipf ranking), producing an expected power-law degree sequence with
//! exponent `gamma`. Used by the dataset stand-ins to add realistic skew.

use crate::{Graph, GraphBuilder, VertexId};
use mmsb_rand::{Rng, RngCore};

/// Parameters for [`generate_chung_lu`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChungLuConfig {
    /// Number of vertices.
    pub num_vertices: u32,
    /// Target number of edges.
    pub num_edges: u64,
    /// Power-law exponent `gamma > 1` (typical social graphs: 2–3).
    pub gamma: f64,
}

/// Alias sampler over vertex weights (Walker's alias method) so each
/// endpoint draw is O(1).
#[derive(Debug)]
struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl AliasTable {
    fn new(weights: &[f64]) -> Self {
        let n = weights.len();
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must have positive mass");
        let mut prob: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s as usize] = l;
            prob[l as usize] -= 1.0 - prob[s as usize];
            if prob[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Leftovers are numerically 1.0.
        for i in small.into_iter().chain(large) {
            prob[i as usize] = 1.0;
        }
        Self { prob, alias }
    }

    fn sample<R: RngCore>(&self, rng: &mut R) -> u32 {
        let i = rng.below_usize(self.prob.len());
        if rng.next_f64() < self.prob[i] {
            i as u32
        } else {
            self.alias[i]
        }
    }
}

/// Generate a Chung–Lu style power-law graph.
///
/// # Panics
/// Panics if `gamma <= 1` or the graph is too dense to realize the
/// requested edge count.
pub fn generate_chung_lu<R: RngCore>(config: &ChungLuConfig, rng: &mut R) -> Graph {
    assert!(config.gamma > 1.0, "gamma must exceed 1");
    let n = config.num_vertices;
    assert!(n >= 2, "need at least 2 vertices");
    let max_edges = (n as u64) * (n as u64 - 1) / 2;
    assert!(
        config.num_edges <= max_edges / 2,
        "requested {} edges but only {} pairs exist; too dense for rejection sampling",
        config.num_edges,
        max_edges
    );

    let exponent = -1.0 / (config.gamma - 1.0);
    let weights: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(exponent)).collect();
    let table = AliasTable::new(&weights);

    let mut builder = GraphBuilder::with_edge_capacity(n, config.num_edges as usize);
    let mut added = 0u64;
    let max_attempts = config.num_edges.saturating_mul(50) + 1000;
    let mut attempts = 0u64;
    while added < config.num_edges && attempts < max_attempts {
        attempts += 1;
        let a = table.sample(rng);
        let b = table.sample(rng);
        if a == b {
            continue;
        }
        if builder.add_edge(VertexId(a), VertexId(b)).unwrap_or(false) {
            added += 1;
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmsb_rand::Xoshiro256PlusPlus;

    #[test]
    fn alias_table_matches_weights() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let weights = [1.0, 2.0, 7.0];
        let t = AliasTable::new(&weights);
        let mut counts = [0usize; 3];
        let n = 100_000;
        for _ in 0..n {
            counts[t.sample(&mut rng) as usize] += 1;
        }
        let total: f64 = weights.iter().sum();
        for (i, &c) in counts.iter().enumerate() {
            let expected = weights[i] / total;
            let got = c as f64 / n as f64;
            assert!((got - expected).abs() < 0.01, "i={i} got={got}");
        }
    }

    #[test]
    fn reaches_target_edge_count() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        let g = generate_chung_lu(
            &ChungLuConfig {
                num_vertices: 2000,
                num_edges: 10_000,
                gamma: 2.5,
            },
            &mut rng,
        );
        assert_eq!(g.num_edges(), 10_000);
        assert_eq!(g.num_vertices(), 2000);
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let g = generate_chung_lu(
            &ChungLuConfig {
                num_vertices: 5000,
                num_edges: 25_000,
                gamma: 2.2,
            },
            &mut rng,
        );
        // Max degree should dwarf the mean for a heavy-tailed distribution.
        let mean = g.mean_degree();
        let max = g.max_degree() as f64;
        assert!(max > 10.0 * mean, "max {max} vs mean {mean}: not skewed");
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn rejects_bad_gamma() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(4);
        generate_chung_lu(
            &ChungLuConfig {
                num_vertices: 10,
                num_edges: 5,
                gamma: 1.0,
            },
            &mut rng,
        );
    }

    #[test]
    #[should_panic(expected = "too dense")]
    fn rejects_overdense_request() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        generate_chung_lu(
            &ChungLuConfig {
                num_vertices: 10,
                num_edges: 40,
                gamma: 2.5,
            },
            &mut rng,
        );
    }
}
