//! Planted overlapping-community generator.
//!
//! The workhorse stand-in for the SNAP datasets: vertices join a random
//! number of communities; each community internally wires its members as an
//! Erdős–Rényi subgraph with an edge probability chosen to hit a target
//! internal degree; a sparse background (the `delta` of the a-MMSB model)
//! adds inter-community noise. Generation is `O(|E|)` expected via
//! geometric edge skipping, so million-edge graphs take milliseconds.

use super::{GeneratedGraph, GroundTruth};
use crate::{GraphBuilder, VertexId};
use mmsb_rand::{Rng, RngCore};

/// Parameters for [`generate_planted`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlantedConfig {
    /// Number of vertices `N`.
    pub num_vertices: u32,
    /// Number of planted communities `K`.
    pub num_communities: usize,
    /// Mean community size (sizes are drawn uniformly in `[0.5, 1.5] x`
    /// this value).
    pub mean_community_size: f64,
    /// Mean memberships per vertex; the overlap factor. Values above 1.0
    /// create overlapping structure. Implemented by scaling community
    /// sizes, then assigning members by sampling vertices.
    pub memberships_per_vertex: f64,
    /// Target mean *intra-community* degree of a member.
    pub internal_degree: f64,
    /// Target mean *background* (noise) degree of a vertex.
    pub background_degree: f64,
}

/// A [`PlantedConfig`] field outside its range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlantedConfigError {
    /// The field, as [`PlantedConfig`] names it.
    pub field: &'static str,
    /// The range it must lie in.
    pub rule: &'static str,
}

impl std::fmt::Display for PlantedConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.rule)
    }
}

impl PlantedConfig {
    /// The first field outside its range, if any: at least 2 vertices and
    /// 1 community, positive memberships per vertex, communities of at
    /// least 2 members on average, degrees not negative (nor NaN).
    pub fn check(&self) -> Result<(), PlantedConfigError> {
        let rules = [
            (
                self.num_vertices >= 2,
                "num_vertices",
                "need at least 2 vertices",
            ),
            (
                self.num_communities >= 1,
                "num_communities",
                "need at least 1 community",
            ),
            (
                self.memberships_per_vertex > 0.0,
                "memberships_per_vertex",
                "memberships per vertex must be > 0",
            ),
            (
                self.mean_community_size >= 2.0,
                "mean_community_size",
                "communities must average >= 2 members",
            ),
            (
                self.internal_degree >= 0.0,
                "internal_degree",
                "internal degree must be >= 0",
            ),
            (
                self.background_degree >= 0.0,
                "background_degree",
                "background degree must be >= 0",
            ),
        ];
        match rules.into_iter().find(|&(ok, ..)| !ok) {
            Some((_, field, rule)) => Err(PlantedConfigError { field, rule }),
            None => Ok(()),
        }
    }
}

/// Sample an Erdős–Rényi `G(members, p)` on the given member list using
/// geometric skipping, adding edges to `builder`.
fn wire_community<R: RngCore>(
    builder: &mut GraphBuilder,
    members: &[VertexId],
    p: f64,
    rng: &mut R,
) {
    let s = members.len();
    if s < 2 || p <= 0.0 {
        return;
    }
    if p >= 1.0 {
        for i in 0..s {
            for j in (i + 1)..s {
                let _ = builder.add_edge(members[i], members[j]);
            }
        }
        return;
    }
    // Enumerate pairs (i, j), i < j, as a linear index and skip ahead by
    // Geometric(p) jumps (Batagelj & Brandes 2005).
    let total = (s as u64) * (s as u64 - 1) / 2;
    let log1p = (1.0 - p).ln();
    let mut idx: u64 = 0;
    loop {
        let u = rng.next_f64_open();
        let skip = (u.ln() / log1p).floor() as u64 + 1;
        idx = match idx.checked_add(skip) {
            Some(v) => v,
            None => break,
        };
        if idx > total {
            break;
        }
        // Invert the linear index (1-based) into (i, j).
        let linear = idx - 1;
        let i = invert_pair_index(linear, s as u64);
        let offset = linear - (i * (2 * (s as u64) - i - 1)) / 2;
        let j = i + 1 + offset;
        let _ = builder.add_edge(members[i as usize], members[j as usize]);
    }
}

/// Given linear index `t` over pairs (i<j) of `s` items in row-major order,
/// return the row `i`.
fn invert_pair_index(t: u64, s: u64) -> u64 {
    // Row i starts at offset i*(2s - i - 1)/2; solve by scanning from an
    // analytic initial guess (exact integer arithmetic, no drift).
    let tf = t as f64;
    let sf = s as f64;
    let mut i = (sf - 0.5 - ((sf - 0.5) * (sf - 0.5) - 2.0 * tf).max(0.0).sqrt()).floor() as u64;
    i = i.min(s - 2);
    while (i * (2 * s - i - 1)) / 2 > t {
        i -= 1;
    }
    while ((i + 1) * (2 * s - i - 2)) / 2 <= t {
        i += 1;
    }
    i
}

/// Generate a graph with planted overlapping communities.
///
/// Deterministic given the RNG state. See [`PlantedConfig`] for knobs.
///
/// # Panics
/// Panics on inconsistent parameters ([`PlantedConfig::check`]).
pub fn generate_planted<R: RngCore>(config: &PlantedConfig, rng: &mut R) -> GeneratedGraph {
    if let Err(e) = config.check() {
        panic!("{e}");
    }
    let n = config.num_vertices;
    let mut builder = GraphBuilder::new(n);

    // Scale community sizes so that total memberships ≈ N * overlap.
    let target_total = (n as f64 * config.memberships_per_vertex).max(1.0);
    let natural_total = config.num_communities as f64 * config.mean_community_size;
    let size_scale = target_total / natural_total;

    let mut communities: Vec<Vec<VertexId>> = Vec::with_capacity(config.num_communities);
    for _ in 0..config.num_communities {
        let jitter = 0.5 + rng.next_f64(); // uniform in [0.5, 1.5)
        let size = ((config.mean_community_size * size_scale * jitter).round() as usize)
            .clamp(2, n as usize);
        let mut members: Vec<VertexId> = rng
            .sample_distinct(n as usize, size)
            .into_iter()
            .map(|i| VertexId(i as u32))
            .collect();
        members.sort_unstable();
        communities.push(members);
    }

    for members in &communities {
        let s = members.len();
        let p = (config.internal_degree / (s as f64 - 1.0)).min(1.0);
        wire_community(&mut builder, members, p, rng);
    }

    // Background noise: expected background_degree * N / 2 random edges.
    let noise_edges = (config.background_degree * n as f64 / 2.0).round() as u64;
    let mut added = 0u64;
    let mut attempts = 0u64;
    let max_attempts = noise_edges.saturating_mul(20) + 100;
    while added < noise_edges && attempts < max_attempts {
        attempts += 1;
        let a = VertexId(rng.below(n as u64) as u32);
        let b = VertexId(rng.below(n as u64) as u32);
        if a == b {
            continue;
        }
        if builder.add_edge(a, b).unwrap_or(false) {
            added += 1;
        }
    }

    GeneratedGraph {
        graph: builder.build(),
        ground_truth: GroundTruth { communities },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmsb_rand::Xoshiro256PlusPlus;

    fn config() -> PlantedConfig {
        PlantedConfig {
            num_vertices: 500,
            num_communities: 10,
            mean_community_size: 60.0,
            memberships_per_vertex: 1.2,
            internal_degree: 12.0,
            background_degree: 1.0,
        }
    }

    #[test]
    fn invert_pair_index_exhaustive() {
        for s in 2u64..12 {
            let mut t = 0u64;
            for i in 0..s - 1 {
                for _j in i + 1..s {
                    assert_eq!(invert_pair_index(t, s), i, "t={t} s={s}");
                    t += 1;
                }
            }
        }
    }

    #[test]
    fn generates_expected_scale() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let g = generate_planted(&config(), &mut rng);
        assert_eq!(g.graph.num_vertices(), 500);
        assert_eq!(g.ground_truth.num_communities(), 10);
        // Expected degree ≈ overlap * internal + background = 1.2*12 + 1.
        let md = g.graph.mean_degree();
        assert!((8.0..25.0).contains(&md), "mean degree {md}");
    }

    #[test]
    fn communities_are_denser_than_background() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        let g = generate_planted(&config(), &mut rng);
        // Probability two random co-members are linked should far exceed
        // the background density.
        let c = &g.ground_truth.communities[0];
        let mut linked = 0usize;
        let mut pairs = 0usize;
        for i in 0..c.len() {
            for j in (i + 1)..c.len() {
                pairs += 1;
                if g.graph.has_edge(c[i], c[j]) {
                    linked += 1;
                }
            }
        }
        let density = linked as f64 / pairs as f64;
        let global = g.graph.num_edges() as f64 / g.graph.num_pairs() as f64;
        assert!(
            density > 5.0 * global,
            "community density {density} vs global {global}"
        );
    }

    #[test]
    fn deterministic() {
        let mut r1 = Xoshiro256PlusPlus::seed_from_u64(3);
        let mut r2 = Xoshiro256PlusPlus::seed_from_u64(3);
        let g1 = generate_planted(&config(), &mut r1);
        let g2 = generate_planted(&config(), &mut r2);
        assert_eq!(g1.graph.num_edges(), g2.graph.num_edges());
        let e1: Vec<_> = g1.graph.edges().collect();
        let e2: Vec<_> = g2.graph.edges().collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn overlap_factor_respected() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(4);
        let mut cfg = config();
        cfg.memberships_per_vertex = 2.0;
        let g = generate_planted(&cfg, &mut rng);
        let overlap = g.ground_truth.mean_memberships(cfg.num_vertices);
        assert!((1.5..2.6).contains(&overlap), "overlap {overlap}");
    }

    #[test]
    #[should_panic(expected = "at least 2 vertices")]
    fn tiny_graph_rejected() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        let mut cfg = config();
        cfg.num_vertices = 1;
        generate_planted(&cfg, &mut rng);
    }

    #[test]
    fn dense_community_p_one() {
        // internal_degree >= size forces p = 1: complete subgraph.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(6);
        let cfg = PlantedConfig {
            num_vertices: 20,
            num_communities: 1,
            mean_community_size: 10.0,
            memberships_per_vertex: 0.5,
            internal_degree: 100.0,
            background_degree: 0.0,
        };
        let g = generate_planted(&cfg, &mut rng);
        let c = &g.ground_truth.communities[0];
        for i in 0..c.len() {
            for j in (i + 1)..c.len() {
                assert!(g.graph.has_edge(c[i], c[j]));
            }
        }
    }
}
