//! Incremental, deduplicating graph construction.

use crate::{Edge, FxHashSet, Graph, GraphError, VertexId};

/// Builds a [`Graph`] from a stream of undirected edges.
///
/// Duplicate edges (in either orientation) are silently dropped; self-loops
/// and out-of-range endpoints are rejected with an error. The builder keys
/// a hash set with packed edges so that [`GraphBuilder::add_edge`] can say
/// whether an edge was new (the generators draw until they have enough
/// distinct edges); [`GraphBuilder::build`] sorts the set once and lays out
/// the CSR from the sorted pairs.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_vertices: u32,
    edges: FxHashSet<u64>,
}

impl GraphBuilder {
    /// Start a builder for a graph with `num_vertices` vertices
    /// (ids `0..num_vertices`).
    pub fn new(num_vertices: u32) -> Self {
        Self {
            num_vertices,
            edges: FxHashSet::default(),
        }
    }

    /// Pre-size the internal edge set.
    pub fn with_edge_capacity(num_vertices: u32, edges: usize) -> Self {
        let mut set = FxHashSet::default();
        set.reserve(edges);
        Self {
            num_vertices,
            edges: set,
        }
    }

    /// Number of vertices the final graph will have.
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of distinct edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Add one undirected edge. Returns `Ok(true)` if the edge was new,
    /// `Ok(false)` if it was a duplicate.
    pub fn add_edge(&mut self, a: VertexId, b: VertexId) -> Result<bool, GraphError> {
        if a == b {
            return Err(GraphError::SelfLoop { vertex: a.0 });
        }
        for v in [a, b] {
            if v.0 >= self.num_vertices {
                return Err(GraphError::VertexOutOfRange {
                    vertex: v.0,
                    num_vertices: self.num_vertices,
                });
            }
        }
        Ok(self.edges.insert(Edge::new(a, b).pack()))
    }

    /// Bulk-add edges, stopping at the first error.
    pub fn add_edges<I>(&mut self, edges: I) -> Result<(), GraphError>
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        for (a, b) in edges {
            self.add_edge(a, b)?;
        }
        Ok(())
    }

    /// Whether the given edge has been added.
    pub fn contains(&self, a: VertexId, b: VertexId) -> bool {
        a != b && self.edges.contains(&Edge::new(a, b).pack())
    }

    /// Finalize into an immutable CSR [`Graph`].
    pub fn build(self) -> Graph {
        let mut edges: Vec<u64> = self.edges.into_iter().collect();
        edges.sort_unstable();
        Graph::from_sorted_edges(self.num_vertices, &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmsb_rand::{Rng, Xoshiro256PlusPlus};
    use std::collections::HashSet;

    #[test]
    fn dedup_both_orientations() {
        let mut b = GraphBuilder::new(3);
        assert!(b.add_edge(VertexId(0), VertexId(1)).unwrap());
        assert!(!b.add_edge(VertexId(1), VertexId(0)).unwrap());
        assert_eq!(b.num_edges(), 1);
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(3);
        assert!(matches!(
            b.add_edge(VertexId(2), VertexId(2)),
            Err(GraphError::SelfLoop { vertex: 2 })
        ));
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(3);
        assert!(matches!(
            b.add_edge(VertexId(0), VertexId(3)),
            Err(GraphError::VertexOutOfRange { vertex: 3, .. })
        ));
    }

    #[test]
    fn contains_reflects_added_edges() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(VertexId(1), VertexId(3)).unwrap();
        assert!(b.contains(VertexId(3), VertexId(1)));
        assert!(!b.contains(VertexId(0), VertexId(1)));
        assert!(!b.contains(VertexId(2), VertexId(2)));
    }

    #[test]
    fn add_edges_bulk() {
        let mut b = GraphBuilder::new(5);
        b.add_edges([(VertexId(0), VertexId(1)), (VertexId(2), VertexId(3))])
            .unwrap();
        assert_eq!(b.num_edges(), 2);
    }

    #[test]
    fn empty_graph_builds() {
        let g = GraphBuilder::new(10).build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 0);
    }

    /// The 64 random edge multisets the tests below share: a builder fed
    /// 0–299 pairs over 50 vertices (duplicates in both orientations
    /// included) and the set of distinct canonical pairs it should hold.
    fn random_multisets() -> impl Iterator<Item = (GraphBuilder, HashSet<(u32, u32)>)> {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xB7);
        (0..64).map(move |_| {
            let n_pairs = rng.below(300) as usize;
            let mut b = GraphBuilder::new(50);
            let mut reference = HashSet::new();
            for _ in 0..n_pairs {
                let x = rng.below(50) as u32;
                let y = rng.below(50) as u32;
                if x == y {
                    continue;
                }
                let _ = b.add_edge(VertexId(x), VertexId(y));
                reference.insert((x.min(y), x.max(y)));
            }
            (b, reference)
        })
    }

    /// Whatever mix of duplicates we feed in, the built graph's edge
    /// count equals the number of *distinct* canonical pairs. Checked
    /// over 64 random edge multisets.
    #[test]
    fn edge_count_matches_distinct_pairs() {
        for (case, (b, reference)) in random_multisets().enumerate() {
            assert_eq!(b.num_edges(), reference.len(), "case {case}");
            let g = b.build();
            assert_eq!(g.num_edges(), reference.len() as u64, "case {case}");
            for &(x, y) in &reference {
                assert!(g.has_edge(VertexId(x), VertexId(y)), "case {case}");
            }
        }
    }

    /// The CSR layout the builder had before it sorted its pairs: scatter
    /// the hash set in iteration order, then sort every list.
    fn hash_set_layout(num_vertices: u32, edges: &FxHashSet<u64>) -> (Vec<u64>, Vec<u32>) {
        let n = num_vertices as usize;
        let mut offsets = vec![0u64; n + 1];
        for &key in edges {
            let e = Edge::unpack(key);
            offsets[e.lo().index() + 1] += 1;
            offsets[e.hi().index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut neighbors = vec![0u32; offsets[n] as usize];
        let mut cursor = offsets.clone();
        for &key in edges {
            let (a, b) = Edge::unpack(key).endpoints();
            neighbors[cursor[a.index()] as usize] = b.0;
            cursor[a.index()] += 1;
            neighbors[cursor[b.index()] as usize] = a.0;
            cursor[b.index()] += 1;
        }
        for i in 0..n {
            neighbors[offsets[i] as usize..offsets[i + 1] as usize].sort_unstable();
        }
        (offsets, neighbors)
    }

    /// `build` through the sorted constructor lays out exactly the CSR the
    /// hash-set path did, on the same 64 multisets.
    #[test]
    fn sorted_constructor_equals_hash_set_path() {
        for (case, (b, _)) in random_multisets().enumerate() {
            let (offsets, neighbors) = hash_set_layout(b.num_vertices(), &b.edges);
            let g = b.build();
            let mut got_offsets = vec![0u64];
            let mut got_neighbors = Vec::new();
            for v in 0..g.num_vertices() {
                got_neighbors.extend_from_slice(g.neighbors(VertexId(v)));
                got_offsets.push(got_neighbors.len() as u64);
            }
            assert_eq!(got_offsets, offsets, "case {case}");
            assert_eq!(got_neighbors, neighbors, "case {case}");
        }
    }
}
