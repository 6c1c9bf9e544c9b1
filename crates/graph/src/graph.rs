//! Immutable CSR graph representation.

use crate::{Edge, VertexId};

/// An immutable undirected graph in compressed-sparse-row form.
///
/// Neighbor lists are sorted, so `has_edge` is a binary search
/// (`O(log deg)`) on the *smaller*-degree endpoint and iteration is a
/// contiguous slice scan. This is the layout the paper keeps at the master
/// (13.5 GB for com-Friendster's 1.8G directed edges); scaled-down graphs
/// here use the same structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// CSR row offsets, length `N + 1`.
    offsets: Vec<u64>,
    /// Concatenated sorted neighbor lists, length `2 |E|`.
    neighbors: Vec<u32>,
    num_edges: u64,
}

impl Graph {
    /// Build from packed canonical edges (see [`Edge::pack`]) in strictly
    /// ascending order — every construction path ends here.
    ///
    /// Degrees are counted, then each pair `(lo, hi)` is appended to both
    /// lists in input order. Ascending pairs append to a vertex `v` first
    /// every `lo < v` of the pairs `(lo, v)`, in ascending `lo`, and then
    /// every `hi > v` of the pairs `(v, hi)`, in ascending `hi` — so every
    /// list comes out sorted with no per-vertex sort. Callers guarantee no
    /// self-loops and in-range endpoints.
    pub(crate) fn from_sorted_edges(num_vertices: u32, edges: &[u64]) -> Self {
        debug_assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges not sorted and unique"
        );
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
            let e = Edge::unpack(key);
            let (a, b) = (e.lo(), e.hi());
            neighbors[cursor[a.index()] as usize] = b.0;
            cursor[a.index()] += 1;
            neighbors[cursor[b.index()] as usize] = a.0;
            cursor[b.index()] += 1;
        }
        Self {
            offsets,
            neighbors,
            num_edges: edges.len() as u64,
        }
    }

    /// Number of vertices `N`.
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Number of vertex pairs `|V| * (|V| - 1) / 2` — the size of the full
    /// edge universe `E*` (linked and non-linked).
    #[inline]
    pub fn num_pairs(&self) -> u64 {
        let n = self.num_vertices() as u64;
        n * (n - 1) / 2
    }

    /// Degree of a vertex.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u32 {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as u32
    }

    /// Sorted neighbor slice of a vertex.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[u32] {
        &self.neighbors[self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize]
    }

    /// Whether the undirected edge `(a, b)` exists. Self-queries return
    /// `false`.
    #[inline]
    pub fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        if a == b {
            return false;
        }
        // Search in the shorter adjacency list.
        let (probe, target) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.neighbors(probe).binary_search(&target.0).is_ok()
    }

    /// Iterate over every undirected edge exactly once (in `lo < hi` order).
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.num_vertices()).flat_map(move |v| {
            self.neighbors(VertexId(v))
                .iter()
                .filter(move |&&u| u > v)
                .map(move |&u| Edge::new(VertexId(v), VertexId(u)))
        })
    }

    /// Maximum degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> u32 {
        (0..self.num_vertices())
            .map(|v| self.degree(VertexId(v)))
            .max()
            .unwrap_or(0)
    }

    /// Mean degree `2|E| / N`.
    pub fn mean_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            2.0 * self.num_edges as f64 / self.num_vertices() as f64
        }
    }

    /// Approximate heap footprint in bytes (CSR arrays only).
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u64>()
            + self.neighbors.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use mmsb_rand::{Rng, Xoshiro256PlusPlus};

    fn triangle_plus_isolated() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edges([
            (VertexId(0), VertexId(1)),
            (VertexId(1), VertexId(2)),
            (VertexId(0), VertexId(2)),
        ])
        .unwrap();
        b.build()
    }

    #[test]
    fn counts() {
        let g = triangle_plus_isolated();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_pairs(), 6);
        assert_eq!(g.max_degree(), 2);
        assert!((g.mean_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = triangle_plus_isolated();
        assert_eq!(g.degree(VertexId(0)), 2);
        assert_eq!(g.degree(VertexId(3)), 0);
        assert_eq!(g.neighbors(VertexId(1)), &[0, 2]);
        assert_eq!(g.neighbors(VertexId(3)), &[] as &[u32]);
    }

    #[test]
    fn has_edge_and_self_query() {
        let g = triangle_plus_isolated();
        assert!(g.has_edge(VertexId(0), VertexId(2)));
        assert!(g.has_edge(VertexId(2), VertexId(0)));
        assert!(!g.has_edge(VertexId(0), VertexId(3)));
        assert!(!g.has_edge(VertexId(1), VertexId(1)));
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = triangle_plus_isolated();
        let edges: Vec<Edge> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        let set: std::collections::HashSet<u64> = edges.iter().map(|e| e.pack()).collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn memory_accounting_is_plausible() {
        let g = triangle_plus_isolated();
        // 5 offsets * 8 + 6 directed neighbors * 4.
        assert_eq!(g.memory_bytes(), 5 * 8 + 6 * 4);
    }

    /// CSR invariants: degree sum = 2|E|, neighbor lists sorted & dedup'd,
    /// has_edge agrees with the edge iterator. Checked over 64 random
    /// edge multisets.
    #[test]
    fn csr_invariants() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xC5);
        for case in 0..64 {
            let n_pairs = rng.below(200) as usize;
            let mut b = GraphBuilder::new(40);
            for _ in 0..n_pairs {
                let x = rng.below(40) as u32;
                let y = rng.below(40) as u32;
                if x != y {
                    b.add_edge(VertexId(x), VertexId(y)).unwrap();
                }
            }
            let g = b.build();
            let degree_sum: u64 = (0..40).map(|v| g.degree(VertexId(v)) as u64).sum();
            assert_eq!(degree_sum, 2 * g.num_edges(), "case {case}");
            for v in 0..40 {
                let ns = g.neighbors(VertexId(v));
                assert!(
                    ns.windows(2).all(|w| w[0] < w[1]),
                    "unsorted/dup neighbors (case {case})"
                );
                for &u in ns {
                    assert!(g.has_edge(VertexId(v), VertexId(u)), "case {case}");
                }
            }
            assert_eq!(g.edges().count() as u64, g.num_edges(), "case {case}");
        }
    }
}
