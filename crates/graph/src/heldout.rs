//! Held-out set construction for perplexity evaluation.
//!
//! Following the paper (and Li, Ahn & Welling), the held-out set `E_h`
//! contains an equal number of *linked* pairs (removed from the training
//! graph) and *non-linked* pairs, so perplexity measures both link
//! prediction and non-link prediction. `E_h` is statically partitioned
//! across machines for the parallel perplexity phase.
//!
//! [`HeldOut::split`] draws links by index into the graph's edges in CSR
//! order, which is ascending packed-edge order, so the training graph is
//! that sorted sequence with the drawn indices dropped, laid out by the one
//! sorted-pairs CSR constructor.
//!
//! Membership is answered from a per-vertex partner index laid out like a
//! CSR: the neighbor sampler asks "which of these 32 candidates pairs with
//! `a`?" for one `a` at a time, so it reads `a`'s short list once instead
//! of probing a hash set per candidate. The index is read-only once built
//! and shared by clones: its `N + 1` offsets are 16 MB at 4M vertices, and
//! every sampler over one split holds a clone.

use crate::{access::GraphAccess, Edge, FxHashSet, Graph, VertexId};
use mmsb_rand::{Rng, RngCore};
use std::sync::Arc;

/// A held-out evaluation set: pairs with their true link observation.
#[derive(Debug, Clone)]
pub struct HeldOut {
    pairs: Vec<(Edge, bool)>,
    index: Arc<PartnerIndex>,
}

/// Every held-out pair in both orientations, grouped by vertex.
#[derive(Debug)]
struct PartnerIndex {
    /// `N + 1` entries: vertex `v`'s partners are
    /// `partners[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<u32>,
    /// `2 |E_h|` entries, ascending within each vertex's range.
    partners: Vec<u32>,
}

impl HeldOut {
    /// Whether `num_links` links and as many non-links can be held out of
    /// a graph of `num_vertices` vertices and `num_edges` edges: at least
    /// two vertices, at most `num_edges` links, and at most as many
    /// non-links as the graph has unlinked pairs. The error says which
    /// bound `num_links` breaks.
    pub fn check_size(num_vertices: u32, num_edges: u64, num_links: usize) -> Result<(), String> {
        let n = u64::from(num_vertices);
        let links = num_links as u64;
        if n < 2 {
            return Err(format!("need at least two vertices, the graph has {n}"));
        }
        if links > num_edges {
            return Err(format!(
                "cannot hold out {num_links} links from a graph with {num_edges} edges"
            ));
        }
        let non_edges = (n * (n - 1) / 2).saturating_sub(num_edges);
        if links > non_edges {
            return Err(format!(
                "graph too dense to sample {num_links} held-out non-links: it has \
                 {non_edges} unlinked pairs"
            ));
        }
        Ok(())
    }

    /// Split `graph` into a training graph and a held-out set with
    /// `num_links` linked pairs and `num_links` non-linked pairs.
    ///
    /// The returned training graph is `graph` minus the held-out links.
    ///
    /// # Panics
    /// Panics if `num_links > |E|` or if the graph is too dense to supply
    /// enough non-links (needs `num_links <= num_pairs - |E|`): the
    /// bounds of [`HeldOut::check_size`].
    pub fn split<R: RngCore>(graph: &Graph, num_links: usize, rng: &mut R) -> (Graph, HeldOut) {
        if let Err(e) = Self::check_size(graph.num_vertices(), graph.num_edges(), num_links) {
            panic!("{e}");
        }

        // `edges()` walks the CSR in ascending packed order, so after the
        // held-out links are dropped the rest is still sorted and unique.
        let mut edges: Vec<u64> = graph.edges().map(Edge::pack).collect();
        let mut held = vec![false; edges.len()];
        let mut pairs = Vec::with_capacity(num_links * 2);
        for i in rng.sample_distinct(edges.len(), num_links) {
            held[i] = true;
            pairs.push((Edge::unpack(edges[i]), true));
        }
        // Non-links dedup among themselves only: `has_edge` already turns
        // away every link, held out or not.
        let mut drawn = FxHashSet::default();

        let n = graph.num_vertices();
        let mut non_links = 0usize;
        while non_links < num_links {
            let a = VertexId(rng.below(n as u64) as u32);
            let b = VertexId(rng.below(n as u64) as u32);
            if a == b {
                continue;
            }
            let e = Edge::new(a, b);
            if graph.has_edge(a, b) || !drawn.insert(e.pack()) {
                continue;
            }
            pairs.push((e, false));
            non_links += 1;
        }

        // The training graph: the same sorted sequence minus the held-out
        // links (`retain` visits the elements in order).
        let mut i = 0;
        edges.retain(|_| {
            i += 1;
            !held[i - 1]
        });
        (
            Graph::from_sorted_edges(n, &edges),
            HeldOut::from_pairs(n, pairs),
        )
    }

    /// Build a held-out set through any [`GraphAccess`] backend *without*
    /// rebuilding the training graph — the out-of-core path, where the
    /// adjacency is immutable on disk and `O(E)` edge collection is off
    /// the table.
    ///
    /// Links are drawn uniformly from `E` by degree-corrected rejection:
    /// pick a vertex uniformly, accept it with probability
    /// `degree / max_degree`, then pick one of its neighbors uniformly —
    /// every directed edge lands with probability `1 / (N * max_degree)`,
    /// so undirected links are uniform. Non-links are uniform pairs
    /// filtered through `has_edge`, exactly as [`HeldOut::split`] draws
    /// them.
    ///
    /// Unlike [`HeldOut::split`], the held-out links stay in the training
    /// graph; the mini-batch and neighbor samplers exclude held-out
    /// *pairs* explicitly, so the evaluation pairs still never contribute
    /// a gradient. Perplexity numbers are therefore comparable across
    /// backends only when both used the same construction.
    ///
    /// # Panics
    /// Panics if the graph has no edges (or too few to supply
    /// `num_links` distinct ones), or is too dense for the non-links: the
    /// bounds of [`HeldOut::check_size`].
    pub fn sample_observed<G: GraphAccess, R: RngCore>(
        mut graph: G,
        num_links: usize,
        rng: &mut R,
    ) -> HeldOut {
        if let Err(e) = Self::check_size(graph.num_vertices(), graph.num_edges(), num_links) {
            panic!("{e}");
        }
        let n = graph.num_vertices();
        let max_degree = graph.max_degree() as u64;

        let mut drawn = FxHashSet::default();
        let mut pairs = Vec::with_capacity(num_links * 2);
        let mut links = 0usize;
        while links < num_links {
            let a = VertexId(rng.below(n as u64) as u32);
            let d = graph.degree(a) as u64;
            if d == 0 || rng.below(max_degree) >= d {
                continue;
            }
            let slot = rng.below(d) as usize;
            let b = VertexId(graph.neighbors(a)[slot]);
            let e = Edge::new(a, b);
            if !drawn.insert(e.pack()) {
                continue;
            }
            pairs.push((e, true));
            links += 1;
        }

        let mut non_links = 0usize;
        while non_links < num_links {
            let a = VertexId(rng.below(n as u64) as u32);
            let b = VertexId(rng.below(n as u64) as u32);
            if a == b {
                continue;
            }
            let e = Edge::new(a, b);
            if graph.has_edge(a, b) || !drawn.insert(e.pack()) {
                continue;
            }
            pairs.push((e, false));
            non_links += 1;
        }
        HeldOut::from_pairs(n, pairs)
    }

    /// Index distinct `pairs` over `n` vertices by partner.
    fn from_pairs(n: u32, pairs: Vec<(Edge, bool)>) -> HeldOut {
        let mut both: Vec<(u32, u32)> = pairs
            .iter()
            .flat_map(|&(e, _)| [(e.lo().0, e.hi().0), (e.hi().0, e.lo().0)])
            .collect();
        both.sort_unstable();
        let mut offsets = vec![0u32; n as usize + 1];
        for &(v, _) in &both {
            offsets[v as usize + 1] += 1;
        }
        for v in 0..n as usize {
            offsets[v + 1] += offsets[v];
        }
        let partners = both.into_iter().map(|(_, w)| w).collect();
        HeldOut {
            pairs,
            index: Arc::new(PartnerIndex { offsets, partners }),
        }
    }

    /// All held-out pairs with their observations.
    pub fn pairs(&self) -> &[(Edge, bool)] {
        &self.pairs
    }

    /// Total number of held-out pairs (links + non-links).
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Whether a pair is part of the held-out set (mini-batch samplers use
    /// this to exclude evaluation pairs from training): a scan of
    /// `e.lo()`'s partner list.
    pub fn contains(&self, e: Edge) -> bool {
        self.partners_of(e.lo()).contains(&e.hi().0)
    }

    /// The vertices `v` is held out against, ascending — empty for a
    /// vertex in no held-out pair (or outside the graph).
    #[inline]
    pub fn partners_of(&self, v: VertexId) -> &[u32] {
        let PartnerIndex { offsets, partners } = &*self.index;
        let v = v.0 as usize;
        match (offsets.get(v), offsets.get(v + 1)) {
            (Some(&lo), Some(&hi)) => &partners[lo as usize..hi as usize],
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::planted::{generate_planted, PlantedConfig};
    use crate::GraphBuilder;
    use mmsb_rand::Xoshiro256PlusPlus;

    fn test_graph() -> Graph {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        generate_planted(
            &PlantedConfig {
                num_vertices: 300,
                num_communities: 6,
                mean_community_size: 60.0,
                memberships_per_vertex: 1.4,
                internal_degree: 8.0,
                background_degree: 1.0,
            },
            &mut rng,
        )
        .graph
    }

    #[test]
    fn split_sizes_and_balance() {
        let g = test_graph();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        let (train, h) = HeldOut::split(&g, 50, &mut rng);
        assert_eq!(h.len(), 100);
        let links = h.pairs().iter().filter(|&&(_, y)| y).count();
        assert_eq!(links, 50);
        assert_eq!(train.num_edges(), g.num_edges() - 50);
    }

    #[test]
    fn heldout_links_absent_from_training() {
        let g = test_graph();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let (train, h) = HeldOut::split(&g, 40, &mut rng);
        for &(e, y) in h.pairs() {
            if y {
                assert!(g.has_edge(e.lo(), e.hi()), "held-out link not in original");
                assert!(
                    !train.has_edge(e.lo(), e.hi()),
                    "held-out link leaked into training"
                );
            } else {
                assert!(!g.has_edge(e.lo(), e.hi()), "held-out non-link is an edge");
            }
        }
    }

    #[test]
    fn contains_matches_pairs() {
        let g = test_graph();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(4);
        let (_, h) = HeldOut::split(&g, 30, &mut rng);
        for &(e, _) in h.pairs() {
            assert!(h.contains(e));
        }
        assert_eq!(h.pairs().len(), 60);
    }

    /// `split` as it was before it filtered the sorted edge sequence: the
    /// same draws, then the training graph rebuilt through a hash set of
    /// the removed links and a [`GraphBuilder`].
    fn split_through_hash_sets<R: RngCore>(
        graph: &Graph,
        num_links: usize,
        rng: &mut R,
    ) -> (Graph, Vec<(Edge, bool)>) {
        let all_edges: Vec<Edge> = graph.edges().collect();
        let link_idx = rng.sample_distinct(all_edges.len(), num_links);
        let mut index = FxHashSet::default();
        let mut removed_links = FxHashSet::default();
        let mut pairs = Vec::with_capacity(num_links * 2);
        for i in link_idx {
            let e = all_edges[i];
            index.insert(e.pack());
            removed_links.insert(e.pack());
            pairs.push((e, true));
        }
        let n = graph.num_vertices();
        let mut non_links = 0usize;
        while non_links < num_links {
            let a = VertexId(rng.below(n as u64) as u32);
            let b = VertexId(rng.below(n as u64) as u32);
            if a == b {
                continue;
            }
            let e = Edge::new(a, b);
            if graph.has_edge(a, b) || !index.insert(e.pack()) {
                continue;
            }
            pairs.push((e, false));
            non_links += 1;
        }
        let mut builder = GraphBuilder::with_edge_capacity(n, all_edges.len() - num_links);
        for e in &all_edges {
            if !removed_links.contains(&e.pack()) {
                builder.add_edge(e.lo(), e.hi()).unwrap();
            }
        }
        (builder.build(), pairs)
    }

    /// Same held-out pairs, in the same order, and the same training CSR
    /// as the hash-set construction, on planted graphs of several sizes
    /// and densities across 12 seeds — including holding out every edge.
    #[test]
    fn split_equals_hash_set_split_on_planted_graphs() {
        for seed in 0..12u64 {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(100 + seed);
            let g = generate_planted(
                &PlantedConfig {
                    num_vertices: 60 + 40 * seed as u32,
                    num_communities: 2 + seed as usize % 5,
                    mean_community_size: 25.0 + 5.0 * seed as f64,
                    memberships_per_vertex: 1.0 + 0.1 * seed as f64,
                    internal_degree: 3.0 + seed as f64,
                    background_degree: 0.5 + 0.25 * seed as f64,
                },
                &mut rng,
            )
            .graph;
            let links = match seed {
                0 => 0,
                1 => g.num_edges() as usize,
                _ => 1 + rng.below(g.num_edges() / 3) as usize,
            };
            let (train, h) =
                HeldOut::split(&g, links, &mut Xoshiro256PlusPlus::seed_from_u64(seed));
            let (want_train, want_pairs) =
                split_through_hash_sets(&g, links, &mut Xoshiro256PlusPlus::seed_from_u64(seed));
            assert_eq!(h.pairs(), want_pairs.as_slice(), "seed {seed}");
            assert_eq!(train, want_train, "seed {seed}");
            assert_eq!(
                train.num_edges(),
                g.num_edges() - links as u64,
                "seed {seed}"
            );
        }
    }

    /// `contains` and `partners_of` against a reference hash set of the
    /// packed pairs, for `split` and `sample_observed` over several seeds:
    /// every pair in both orientations, then random pairs; a clone shares
    /// the index instead of copying it.
    #[test]
    fn partner_index_matches_a_hash_set() {
        let g = test_graph();
        let n = g.num_vertices();
        for seed in 0..6u64 {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(40 + seed);
            let links = 10 + 15 * seed as usize;
            let h = if seed % 2 == 0 {
                HeldOut::split(&g, links, &mut rng).1
            } else {
                HeldOut::sample_observed(&g, links, &mut rng)
            };
            let set: FxHashSet<u64> = h.pairs().iter().map(|&(e, _)| e.pack()).collect();
            for &(e, _) in h.pairs() {
                assert!(h.contains(e) && h.contains(Edge::new(e.hi(), e.lo())));
                assert!(h.partners_of(e.lo()).contains(&e.hi().0));
                assert!(h.partners_of(e.hi()).contains(&e.lo().0));
            }
            for v in 0..n {
                let list = h.partners_of(VertexId(v));
                assert!(list.windows(2).all(|w| w[0] < w[1]), "seed {seed} v {v}");
                for &w in list {
                    assert!(set.contains(&Edge::new(VertexId(v), VertexId(w)).pack()));
                }
            }
            let total: usize = (0..n).map(|v| h.partners_of(VertexId(v)).len()).sum();
            assert_eq!(total, 2 * h.len(), "seed {seed}");
            for _ in 0..2000 {
                let a = VertexId(rng.below(n as u64) as u32);
                let b = VertexId(rng.below(n as u64) as u32);
                if a != b {
                    let e = Edge::new(a, b);
                    assert_eq!(h.contains(e), set.contains(&e.pack()), "seed {seed} {e:?}");
                }
            }
            assert!(h.partners_of(VertexId(n)).is_empty());
            assert!(
                Arc::ptr_eq(&h.clone().index, &h.index),
                "clones share the index"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cannot hold out")]
    fn too_many_links_panics() {
        let g = test_graph();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(6);
        let want = g.num_edges() as usize + 1;
        HeldOut::split(&g, want, &mut rng);
    }

    #[test]
    #[should_panic(expected = "too dense")]
    fn too_dense_graph_panics() {
        // K4 has every one of its 6 pairs linked: no non-link to draw.
        let mut b = GraphBuilder::new(4);
        for x in 0..4 {
            for y in x + 1..4 {
                b.add_edge(VertexId(x), VertexId(y)).unwrap();
            }
        }
        HeldOut::split(&b.build(), 1, &mut Xoshiro256PlusPlus::seed_from_u64(8));
    }

    #[test]
    fn sample_observed_labels_are_truthful_and_balanced() {
        let g = test_graph();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(9);
        let h = HeldOut::sample_observed(&g, 40, &mut rng);
        assert_eq!(h.len(), 80);
        let links = h.pairs().iter().filter(|&&(_, y)| y).count();
        assert_eq!(links, 40);
        for &(e, y) in h.pairs() {
            assert_eq!(y, g.has_edge(e.lo(), e.hi()));
            assert!(h.contains(e));
        }
        // Pairs are distinct.
        let set: std::collections::HashSet<u64> =
            h.pairs().iter().map(|&(e, _)| e.pack()).collect();
        assert_eq!(set.len(), h.len());
    }

    #[test]
    fn sample_observed_deterministic_given_seed() {
        let g = test_graph();
        let mut r1 = Xoshiro256PlusPlus::seed_from_u64(10);
        let mut r2 = Xoshiro256PlusPlus::seed_from_u64(10);
        assert_eq!(
            HeldOut::sample_observed(&g, 25, &mut r1).pairs(),
            HeldOut::sample_observed(&g, 25, &mut r2).pairs()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let g = test_graph();
        let mut r1 = Xoshiro256PlusPlus::seed_from_u64(7);
        let mut r2 = Xoshiro256PlusPlus::seed_from_u64(7);
        let (_, h1) = HeldOut::split(&g, 20, &mut r1);
        let (_, h2) = HeldOut::split(&g, 20, &mut r2);
        assert_eq!(h1.pairs(), h2.pairs());
    }
}
