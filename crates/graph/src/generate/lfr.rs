//! LFR-style benchmark generator (Lancichinetti–Fortunato–Radicchi).
//!
//! The standard benchmark for overlapping community detection: power-law
//! degree distribution, power-law community sizes, and a mixing parameter
//! `mu` giving the fraction of each vertex's edges that leave its own
//! communities. This implementation follows the construction of the 2009
//! benchmark with the usual simplifications (stub matching with rejection
//! instead of full edge rewiring):
//!
//! 1. degrees `~ PowerLaw(tau1)` truncated to `[min_degree, max_degree]`,
//! 2. community sizes `~ PowerLaw(tau2)` truncated to
//!    `[min_community, max_community]`, drawn until they can host all
//!    memberships,
//! 3. each vertex receives `memberships` community slots (overlap),
//!    assigned round-robin over a shuffled slot pool,
//! 4. each vertex splits `(1 - mu) * degree` internal stubs evenly over
//!    its communities; internal stubs are matched within each community,
//! 5. the remaining `mu * degree` external stubs are matched globally,
//!    rejecting intra-community pairs when possible.

use super::{GeneratedGraph, GroundTruth};
use crate::{GraphBuilder, VertexId};
use mmsb_rand::{Rng, RngCore};

/// Parameters of the LFR-style benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct LfrConfig {
    /// Number of vertices.
    pub num_vertices: u32,
    /// Degree-distribution exponent `tau1` (> 1; typical 2–3).
    pub tau1: f64,
    /// Community-size exponent `tau2` (> 1; typical 1–2).
    pub tau2: f64,
    /// Mixing parameter `mu` in `[0, 1)`: fraction of external edges.
    pub mu: f64,
    /// Minimum degree.
    pub min_degree: u32,
    /// Maximum degree.
    pub max_degree: u32,
    /// Minimum community size.
    pub min_community: u32,
    /// Maximum community size.
    pub max_community: u32,
    /// Memberships per vertex (1 = disjoint communities; 2+ = overlap).
    pub memberships: u32,
}

impl Default for LfrConfig {
    fn default() -> Self {
        Self {
            num_vertices: 1000,
            tau1: 2.5,
            tau2: 1.5,
            mu: 0.2,
            min_degree: 6,
            max_degree: 50,
            min_community: 20,
            max_community: 100,
            memberships: 1,
        }
    }
}

impl LfrConfig {
    fn validate(&self) {
        assert!(self.num_vertices >= 10, "need at least 10 vertices");
        assert!(
            self.tau1 > 1.0 && self.tau2 > 1.0,
            "exponents must exceed 1"
        );
        assert!((0.0..1.0).contains(&self.mu), "mu must lie in [0, 1)");
        assert!(
            self.min_degree >= 1 && self.min_degree <= self.max_degree,
            "bad degree bounds"
        );
        assert!(
            self.min_community >= 2 && self.min_community <= self.max_community,
            "bad community-size bounds"
        );
        assert!(self.memberships >= 1, "memberships must be at least 1");
        assert!(
            self.max_community <= self.num_vertices,
            "communities cannot exceed the graph"
        );
    }
}

/// Draw from a truncated power law with exponent `tau` over
/// `[lo, hi]` via inverse-CDF sampling of the continuous approximation.
fn power_law<R: RngCore>(lo: u32, hi: u32, tau: f64, rng: &mut R) -> u32 {
    if lo == hi {
        return lo;
    }
    let (lo_f, hi_f) = (lo as f64, hi as f64 + 1.0);
    let a = 1.0 - tau;
    let u = rng.next_f64_open();
    let x = (lo_f.powf(a) + u * (hi_f.powf(a) - lo_f.powf(a))).powf(1.0 / a);
    (x.floor() as u32).clamp(lo, hi)
}

/// Generate an LFR-style benchmark graph.
///
/// # Panics
/// Panics on invalid parameters (see [`LfrConfig`]).
pub fn generate_lfr<R: RngCore>(config: &LfrConfig, rng: &mut R) -> GeneratedGraph {
    config.validate();
    let n = config.num_vertices as usize;

    // 1. Degrees.
    let degrees: Vec<u32> = (0..n)
        .map(|_| power_law(config.min_degree, config.max_degree, config.tau1, rng))
        .collect();

    // 2. Community sizes covering all membership slots.
    let total_slots = n as u64 * config.memberships as u64;
    let mut sizes: Vec<u32> = Vec::new();
    let mut covered = 0u64;
    while covered < total_slots {
        let s = power_law(config.min_community, config.max_community, config.tau2, rng);
        sizes.push(s);
        covered += s as u64;
    }
    // Trim the overshoot from the last community (keeping it >= min).
    let overshoot = (covered - total_slots) as u32;
    if let Some(last) = sizes.last_mut() {
        *last = (*last).saturating_sub(overshoot).max(config.min_community);
    }

    // 3. Assign membership slots: shuffle all (vertex, slot) entries and
    //    deal them into communities; a vertex never joins one community
    //    twice (slots that would collide are re-dealt greedily).
    let mut slots: Vec<u32> = (0..n as u32)
        .flat_map(|v| std::iter::repeat_n(v, config.memberships as usize))
        .collect();
    rng.shuffle(&mut slots);
    let mut communities: Vec<Vec<VertexId>> = sizes.iter().map(|_| Vec::new()).collect();
    let mut member_of: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut cursor = 0usize;
    let mut leftovers: Vec<u32> = Vec::new();
    for (c, &size) in sizes.iter().enumerate() {
        while communities[c].len() < size as usize && cursor < slots.len() {
            let v = slots[cursor];
            cursor += 1;
            if member_of[v as usize].contains(&(c as u32)) {
                leftovers.push(v);
            } else {
                communities[c].push(VertexId(v));
                member_of[v as usize].push(c as u32);
            }
        }
    }
    // Deal leftovers into the first communities that can take them.
    'outer: for v in leftovers {
        for (c, members) in communities.iter_mut().enumerate() {
            if !member_of[v as usize].contains(&(c as u32)) {
                members.push(VertexId(v));
                member_of[v as usize].push(c as u32);
                continue 'outer;
            }
        }
    }
    // Guarantee every vertex has at least one community (possible misses
    // when memberships slots collided repeatedly).
    for v in 0..n as u32 {
        if member_of[v as usize].is_empty() {
            let c = rng.below_usize(communities.len());
            communities[c].push(VertexId(v));
            member_of[v as usize].push(c as u32);
        }
    }

    // 4. Internal stubs per (vertex, community).
    let mut builder = GraphBuilder::new(config.num_vertices);
    for (c, members) in communities.iter().enumerate() {
        if members.len() < 2 {
            continue;
        }
        // Each member contributes its internal degree share for this
        // community as stubs.
        let mut stubs: Vec<u32> = Vec::new();
        for &v in members {
            let internal = ((1.0 - config.mu) * degrees[v.index()] as f64).round() as u32;
            let share = (internal / member_of[v.index()].len() as u32).max(1);
            // Cap by community size - 1 (simple graph).
            let share = share.min(members.len() as u32 - 1);
            stubs.extend(std::iter::repeat_n(v.0, share as usize));
        }
        rng.shuffle(&mut stubs);
        // Pair stubs; rejections (self-pairs, duplicates) are dropped —
        // the benchmark tolerates small degree deviations.
        let _ = c;
        for pair in stubs.chunks_exact(2) {
            if pair[0] != pair[1] {
                let _ = builder.add_edge(VertexId(pair[0]), VertexId(pair[1]));
            }
        }
    }

    // 5. External stubs matched globally with intra-community rejection.
    let mut ext_stubs: Vec<u32> = Vec::new();
    for (v, &d) in degrees.iter().enumerate() {
        let external = (config.mu * d as f64).round() as u32;
        ext_stubs.extend(std::iter::repeat_n(v as u32, external as usize));
    }
    rng.shuffle(&mut ext_stubs);
    let same_community = |a: u32, b: u32, member_of: &Vec<Vec<u32>>| {
        member_of[a as usize]
            .iter()
            .any(|c| member_of[b as usize].contains(c))
    };
    let mut i = 0;
    while i + 1 < ext_stubs.len() {
        let (a, b) = (ext_stubs[i], ext_stubs[i + 1]);
        if a != b && !same_community(a, b, &member_of) {
            let _ = builder.add_edge(VertexId(a), VertexId(b));
            i += 2;
        } else {
            // Re-shuffle the tail once in a while to break bad runs.
            let j = i + 2 + rng.below_usize((ext_stubs.len() - i - 1).max(1));
            if j < ext_stubs.len() {
                ext_stubs.swap(i + 1, j);
            } else {
                i += 2; // give up on this pair
            }
        }
    }

    GeneratedGraph {
        graph: builder.build(),
        ground_truth: GroundTruth { communities },
    }
}

/// Measure the empirical mixing parameter of a graph against a ground
/// truth: the fraction of edges whose endpoints share no community.
pub fn empirical_mixing(g: &GeneratedGraph) -> f64 {
    let member_of = g.ground_truth.memberships(g.graph.num_vertices());
    let mut external = 0u64;
    let mut total = 0u64;
    for e in g.graph.edges() {
        total += 1;
        let a = &member_of[e.lo().index()];
        let b = &member_of[e.hi().index()];
        if !a.iter().any(|c| b.contains(c)) {
            external += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        external as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmsb_rand::Xoshiro256PlusPlus;

    #[test]
    fn power_law_respects_bounds() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        for _ in 0..5000 {
            let x = power_law(5, 50, 2.5, &mut rng);
            assert!((5..=50).contains(&x));
        }
        assert_eq!(power_law(7, 7, 2.0, &mut rng), 7);
    }

    #[test]
    fn power_law_is_skewed_toward_small_values() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        let draws: Vec<u32> = (0..20_000)
            .map(|_| power_law(5, 500, 2.5, &mut rng))
            .collect();
        let below20 = draws.iter().filter(|&&x| x < 20).count();
        assert!(below20 > 14_000, "only {below20} draws below 20");
    }

    #[test]
    fn generates_plausible_graph() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let cfg = LfrConfig::default();
        let g = generate_lfr(&cfg, &mut rng);
        assert_eq!(g.graph.num_vertices(), 1000);
        assert!(g.graph.num_edges() > 1500, "edges {}", g.graph.num_edges());
        // Degrees respect the cap approximately (stub rejection can only
        // lower them).
        assert!(g.graph.max_degree() <= cfg.max_degree + cfg.memberships);
        // Community sizes within bounds (last one may be trimmed).
        for members in &g.ground_truth.communities {
            assert!(members.len() as u32 <= cfg.max_community + cfg.memberships);
        }
    }

    #[test]
    fn every_vertex_has_a_community() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(4);
        let g = generate_lfr(&LfrConfig::default(), &mut rng);
        let memberships = g.ground_truth.memberships(1000);
        assert!(memberships.iter().all(|m| !m.is_empty()));
    }

    #[test]
    fn mixing_tracks_mu() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        for mu in [0.1, 0.3] {
            let cfg = LfrConfig {
                mu,
                ..LfrConfig::default()
            };
            let g = generate_lfr(&cfg, &mut rng);
            let measured = empirical_mixing(&g);
            assert!(
                (measured - mu).abs() < 0.12,
                "mu = {mu}, measured {measured}"
            );
        }
    }

    #[test]
    fn overlap_produces_multi_memberships() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(6);
        let cfg = LfrConfig {
            memberships: 2,
            ..LfrConfig::default()
        };
        let g = generate_lfr(&cfg, &mut rng);
        let memberships = g.ground_truth.memberships(1000);
        let multi = memberships.iter().filter(|m| m.len() >= 2).count();
        assert!(multi > 700, "only {multi} overlapping vertices");
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = LfrConfig::default();
        let mut r1 = Xoshiro256PlusPlus::seed_from_u64(7);
        let mut r2 = Xoshiro256PlusPlus::seed_from_u64(7);
        let a = generate_lfr(&cfg, &mut r1);
        let b = generate_lfr(&cfg, &mut r2);
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
    }

    #[test]
    #[should_panic(expected = "mu must lie")]
    fn rejects_bad_mu() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(8);
        let cfg = LfrConfig {
            mu: 1.0,
            ..LfrConfig::default()
        };
        generate_lfr(&cfg, &mut rng);
    }
}
