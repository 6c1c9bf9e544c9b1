//! The neighbor-access trait the samplers consume.
//!
//! Everything mini-batch training needs from the data side is four
//! queries: vertex count, degree, a sorted neighbor list, and an edge
//! membership test. [`GraphAccess`] abstracts exactly those, so the same
//! sampler code runs against the resident CSR ([`Graph`]) or an
//! out-of-core block-cached reader (`mmsb-ooc`'s `OocReader`).
//!
//! The list- and membership-returning methods take `&mut self`: an
//! out-of-core reader mutates its block cache on every read. The resident
//! implementation (on `&Graph`) ignores the mutability. Crucially, the
//! *values* returned never depend on reader state — neighbor lists are
//! the same sorted, deduplicated ids whichever backend serves them —
//! which is what keeps sampling chains bitwise identical across backends
//! (DESIGN.md §15).

use crate::{Graph, VertexId};

/// Read access to an undirected graph's adjacency structure.
pub trait GraphAccess {
    /// Number of vertices `N`.
    fn num_vertices(&self) -> u32;

    /// Number of undirected edges `|E|`.
    fn num_edges(&self) -> u64;

    /// Degree of `v` (resident metadata on every backend — no I/O).
    fn degree(&self, v: VertexId) -> u32;

    /// Maximum degree over all vertices.
    fn max_degree(&self) -> u32;

    /// The sorted neighbor list of `v` as raw ids. May touch the backing
    /// store; the slice borrows from `self` (the reader's decode scratch
    /// or the CSR itself).
    fn neighbors(&mut self, v: VertexId) -> &[u32];

    /// Whether the edge `{a, b}` exists. `a != b` is assumed.
    fn has_edge(&mut self, a: VertexId, b: VertexId) -> bool;

    /// Number of unordered vertex pairs `|E*| = N (N - 1) / 2`.
    fn num_pairs(&self) -> u64 {
        let n = self.num_vertices() as u64;
        n * (n - 1) / 2
    }
}

/// Edge tests for one anchor: `linked[i]` is whether `sampled[i]` is in
/// `anchor_list`, the anchor's sorted neighbor list.
///
/// Adjacency is symmetric, so this equals `has_edge(anchor, sampled[i])`
/// — but where `has_edge` opens the lower-degree endpoint's list (one
/// random block read per sampled vertex on an out-of-core backend), the
/// anchor's list is read once and answers every test. All training-path
/// edge tests go through here.
pub fn mark_links(anchor_list: &[u32], sampled: &[VertexId], linked: &mut Vec<bool>) {
    linked.clear();
    linked.extend(sampled.iter().map(|b| anchor_list.binary_search(&b.0).is_ok()));
}

impl<G: GraphAccess> GraphAccess for &mut G {
    fn num_vertices(&self) -> u32 {
        (**self).num_vertices()
    }

    fn num_edges(&self) -> u64 {
        (**self).num_edges()
    }

    fn degree(&self, v: VertexId) -> u32 {
        (**self).degree(v)
    }

    fn max_degree(&self) -> u32 {
        (**self).max_degree()
    }

    fn neighbors(&mut self, v: VertexId) -> &[u32] {
        (**self).neighbors(v)
    }

    fn has_edge(&mut self, a: VertexId, b: VertexId) -> bool {
        (**self).has_edge(a, b)
    }
}

impl GraphAccess for &Graph {
    fn num_vertices(&self) -> u32 {
        Graph::num_vertices(self)
    }

    fn num_edges(&self) -> u64 {
        Graph::num_edges(self)
    }

    fn degree(&self, v: VertexId) -> u32 {
        Graph::degree(self, v)
    }

    fn max_degree(&self) -> u32 {
        Graph::max_degree(self)
    }

    fn neighbors(&mut self, v: VertexId) -> &[u32] {
        Graph::neighbors(self, v)
    }

    fn has_edge(&mut self, a: VertexId, b: VertexId) -> bool {
        Graph::has_edge(self, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample_all<G: GraphAccess>(mut g: G) -> (u32, u64, Vec<u32>, bool, bool) {
        let ns = g.neighbors(VertexId(1)).to_vec();
        (
            g.num_vertices(),
            g.num_pairs(),
            ns,
            g.has_edge(VertexId(0), VertexId(1)),
            g.has_edge(VertexId(0), VertexId(3)),
        )
    }

    #[test]
    fn mark_links_equals_has_edge_from_either_side() {
        let mut b = GraphBuilder::new(5);
        for (x, y) in [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)] {
            b.add_edge(VertexId(x), VertexId(y)).unwrap();
        }
        let g = b.build();
        let mut linked = vec![true; 9];
        for a in 0..5 {
            let sampled: Vec<VertexId> = (0..5).filter(|&v| v != a).map(VertexId).collect();
            mark_links(g.neighbors(VertexId(a)), &sampled, &mut linked);
            let expect: Vec<bool> = sampled.iter().map(|&v| g.has_edge(VertexId(a), v)).collect();
            assert_eq!(linked, expect, "anchor {a}");
        }
    }

    #[test]
    fn resident_impl_matches_inherent_methods() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(VertexId(0), VertexId(1)).unwrap();
        b.add_edge(VertexId(1), VertexId(2)).unwrap();
        let g = b.build();
        let (n, pairs, ns, e01, e03) = sample_all(&g);
        assert_eq!(n, 4);
        assert_eq!(pairs, 6);
        assert_eq!(ns, vec![0, 2]);
        assert!(e01);
        assert!(!e03);
    }
}
