//! Neighbor-set sampling (`V_n`) for the local `phi` update.
//!
//! For each mini-batch vertex `a`, Algorithm 1 line 5 draws a random set of
//! `n` vertices from `V`. The estimator in Eq. 5 then scales their summed
//! gradient by `N / |V_n|`. Held-out pairs must be excluded so that the
//! evaluation set never influences training.

use crate::{heldout::HeldOut, VertexId};
use mmsb_rand::{Rng, RngCore};

/// Sampler for per-vertex neighbor sets.
#[derive(Debug, Clone, Copy)]
pub struct NeighborSampler {
    /// Number of vertices `N` in the graph.
    num_vertices: u32,
    /// Target sample size `n = |V_n|`.
    sample_size: usize,
}

impl NeighborSampler {
    /// Create a sampler over a graph of `num_vertices` vertices drawing
    /// `sample_size` neighbors per call.
    ///
    /// # Panics
    /// Panics if `sample_size >= num_vertices` (the sample excludes the
    /// center vertex, so at most `N - 1` candidates exist).
    pub fn new(num_vertices: u32, sample_size: usize) -> Self {
        assert!(
            sample_size < num_vertices as usize,
            "neighbor sample size {sample_size} must be < N = {num_vertices}"
        );
        Self {
            num_vertices,
            sample_size,
        }
    }

    /// The configured `|V_n|`.
    pub fn sample_size(&self) -> usize {
        self.sample_size
    }

    /// Sample a neighbor set for `center` into `out`: distinct vertices,
    /// excluding `center` itself and any pair present in `heldout`.
    /// `seen` is the rejection loop's dedup set; both buffers are the
    /// caller's, so a warmed call allocates nothing.
    ///
    /// When the exclusions leave fewer than `sample_size` candidates
    /// (possible for near-exhaustive samples on small graphs), the full
    /// remaining candidate set is returned instead — callers scale the
    /// gradient by the *actual* `|V_n|`, so a short set stays unbiased.
    ///
    /// The held-out test reads `center`'s partner list once
    /// ([`HeldOut::partners_of`]) and scans it per candidate.
    pub fn sample_into<R: RngCore>(
        &self,
        center: VertexId,
        heldout: Option<&HeldOut>,
        rng: &mut R,
        out: &mut Vec<VertexId>,
        seen: &mut crate::FxHashSet<u32>,
    ) {
        out.clear();
        seen.clear();
        seen.reserve(self.sample_size * 2);
        let held: &[u32] = heldout.map_or(&[], |h| h.partners_of(center));
        // Rejection sampling: for the sparse regimes we care about
        // (n << N), collisions are rare and this is O(n) expected. The
        // attempt budget guards the dense regime, where exclusions can
        // make the target unreachable.
        let max_attempts = (self.sample_size as u64 + 8) * 16;
        let mut attempts = 0u64;
        while out.len() < self.sample_size && attempts < max_attempts {
            attempts += 1;
            let b = VertexId(rng.below(self.num_vertices as u64) as u32);
            if b == center || !seen.insert(b.0) || held.contains(&b.0) {
                continue;
            }
            out.push(b);
        }
        if out.len() < self.sample_size {
            // Dense fallback: enumerate what is actually available.
            for v in 0..self.num_vertices {
                if out.len() == self.sample_size {
                    break;
                }
                if v == center.0 || seen.contains(&v) || held.contains(&v) {
                    continue;
                }
                out.push(VertexId(v));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::planted::{generate_planted, PlantedConfig};
    use crate::heldout::HeldOut;
    use crate::{Edge, FxHashSet, GraphBuilder};
    use mmsb_rand::Xoshiro256PlusPlus;

    /// One call of `sample_into` into fresh buffers.
    fn sample<R: RngCore>(
        s: &NeighborSampler,
        center: VertexId,
        heldout: Option<&HeldOut>,
        rng: &mut R,
    ) -> Vec<VertexId> {
        let mut out = Vec::new();
        s.sample_into(center, heldout, rng, &mut out, &mut FxHashSet::default());
        out
    }

    /// `sample_into` as it was before the partner lists: one probe of a
    /// packed-pair hash set per candidate.
    fn sample_by_hash_probe<R: RngCore>(
        s: &NeighborSampler,
        center: VertexId,
        heldout: &FxHashSet<u64>,
        rng: &mut R,
    ) -> Vec<VertexId> {
        let mut out = Vec::new();
        let mut seen = FxHashSet::default();
        let max_attempts = (s.sample_size as u64 + 8) * 16;
        let mut attempts = 0u64;
        while out.len() < s.sample_size && attempts < max_attempts {
            attempts += 1;
            let b = VertexId(rng.below(s.num_vertices as u64) as u32);
            if b == center || !seen.insert(b.0) {
                continue;
            }
            if heldout.contains(&Edge::new(center, b).pack()) {
                continue;
            }
            out.push(b);
        }
        if out.len() < s.sample_size {
            for v in 0..s.num_vertices {
                if out.len() == s.sample_size {
                    break;
                }
                let b = VertexId(v);
                if b == center || seen.contains(&v) {
                    continue;
                }
                if heldout.contains(&Edge::new(center, b).pack()) {
                    continue;
                }
                out.push(b);
            }
        }
        out
    }

    fn packed(h: &HeldOut) -> FxHashSet<u64> {
        h.pairs().iter().map(|&(e, _)| e.pack()).collect()
    }

    /// Same sets in the same order, and the stream left at the same
    /// place, as the hash-probe version on planted graphs with held-out
    /// sets over 12 seeds.
    #[test]
    fn sample_into_matches_hash_probe_reference() {
        for seed in 0..12u64 {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(500 + seed);
            let n = 40 + 30 * seed as u32;
            let g = generate_planted(
                &PlantedConfig {
                    num_vertices: n,
                    num_communities: 2 + seed as usize % 4,
                    mean_community_size: 20.0 + 4.0 * seed as f64,
                    memberships_per_vertex: 1.2,
                    internal_degree: 6.0,
                    background_degree: 1.0,
                },
                &mut rng,
            )
            .graph;
            let (_, h) = HeldOut::split(&g, (g.num_edges() / 4) as usize, &mut rng);
            let set = packed(&h);
            let s = NeighborSampler::new(n, (n as usize / 3).min(32));
            let mut fresh = Xoshiro256PlusPlus::seed_from_u64(seed);
            let mut old = fresh.clone();
            let (mut out, mut seen) = (Vec::new(), FxHashSet::default());
            for v in 0..n {
                s.sample_into(VertexId(v), Some(&h), &mut fresh, &mut out, &mut seen);
                let want = sample_by_hash_probe(&s, VertexId(v), &set, &mut old);
                assert_eq!(out, want, "seed {seed} center {v}");
                assert_eq!(fresh, old, "seed {seed} center {v}");
            }
        }
    }

    /// The dense fallback (N = 10, n = 9) with held-out pairs at the
    /// center: same sets as the hash-probe version, never a held-out pair.
    #[test]
    fn dense_fallback_matches_hash_probe_reference() {
        let mut b = GraphBuilder::new(10);
        for v in 0..10u32 {
            b.add_edge(VertexId(v), VertexId((v + 1) % 10)).unwrap();
            b.add_edge(VertexId(v), VertexId((v + 3) % 10)).unwrap();
        }
        let g = b.build();
        let s = NeighborSampler::new(10, 9);
        let mut centers_with_pairs = 0;
        for seed in 0..12u64 {
            let (_, h) = HeldOut::split(&g, 3, &mut Xoshiro256PlusPlus::seed_from_u64(seed));
            let set = packed(&h);
            for v in 0..10 {
                let center = VertexId(v);
                centers_with_pairs += usize::from(!h.partners_of(center).is_empty());
                let mut fresh = Xoshiro256PlusPlus::seed_from_u64(seed * 10 + v as u64);
                let mut old = fresh.clone();
                let got = sample(&s, center, Some(&h), &mut fresh);
                assert_eq!(got, sample_by_hash_probe(&s, center, &set, &mut old));
                assert_eq!(got.len(), 9 - h.partners_of(center).len());
                assert!(got.iter().all(|&b| !h.contains(Edge::new(center, b))));
            }
        }
        assert!(centers_with_pairs > 0);
    }

    #[test]
    fn sample_has_right_size_and_no_center() {
        let s = NeighborSampler::new(100, 10);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        for v in 0..20 {
            let ns = sample(&s, VertexId(v), None, &mut rng);
            assert_eq!(ns.len(), 10);
            assert!(!ns.contains(&VertexId(v)));
            let set: std::collections::HashSet<_> = ns.iter().collect();
            assert_eq!(set.len(), 10, "duplicates in neighbor set");
        }
    }

    #[test]
    fn excludes_heldout_pairs() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        let g = generate_planted(
            &PlantedConfig {
                num_vertices: 60,
                num_communities: 3,
                mean_community_size: 25.0,
                memberships_per_vertex: 1.2,
                internal_degree: 10.0,
                background_degree: 2.0,
            },
            &mut rng,
        )
        .graph;
        let (_, heldout) = HeldOut::split(&g, 40, &mut rng);
        let s = NeighborSampler::new(60, 30);
        for v in 0..60 {
            let ns = sample(&s, VertexId(v), Some(&heldout), &mut rng);
            for b in ns {
                assert!(
                    !heldout.contains(Edge::new(VertexId(v), b)),
                    "sampled held-out pair ({v}, {})",
                    b.0
                );
            }
        }
    }

    #[test]
    fn nearly_exhaustive_sample_still_terminates() {
        let s = NeighborSampler::new(10, 9);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let ns = sample(&s, VertexId(0), None, &mut rng);
        let mut ids: Vec<u32> = ns.iter().map(|v| v.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "must be < N")]
    fn oversize_sample_panics() {
        NeighborSampler::new(10, 10);
    }

    /// Reused buffers across several centers drawn from one stream: each
    /// call clears and refills them.
    #[test]
    fn sample_many_matches_centers() {
        let s = NeighborSampler::new(50, 5);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(4);
        let (mut out, mut seen) = (Vec::new(), FxHashSet::default());
        for c in [1, 2, 3] {
            s.sample_into(VertexId(c), None, &mut rng, &mut out, &mut seen);
            assert_eq!(out.len(), 5);
            assert!(!out.contains(&VertexId(c)));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let s = NeighborSampler::new(1000, 32);
        let mut r1 = Xoshiro256PlusPlus::seed_from_u64(9);
        let mut r2 = Xoshiro256PlusPlus::seed_from_u64(9);
        assert_eq!(
            sample(&s, VertexId(5), None, &mut r1),
            sample(&s, VertexId(5), None, &mut r2)
        );
    }
}
