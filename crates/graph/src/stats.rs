//! Graph summary statistics (backs the Table II reproduction).

use crate::{Graph, VertexId};

/// Summary statistics of one graph, printable as a Table II row.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphSummary {
    /// Dataset name.
    pub name: String,
    /// Number of vertices.
    pub vertices: u64,
    /// Number of undirected edges.
    pub edges: u64,
    /// Mean degree.
    pub mean_degree: f64,
    /// Maximum degree.
    pub max_degree: u32,
    /// Number of isolated (degree-0) vertices.
    pub isolated: u64,
    /// CSR memory footprint in bytes.
    pub memory_bytes: usize,
}

/// Compute summary statistics for a graph.
pub fn summarize(name: &str, graph: &Graph) -> GraphSummary {
    let isolated = (0..graph.num_vertices())
        .filter(|&v| graph.degree(VertexId(v)) == 0)
        .count() as u64;
    GraphSummary {
        name: name.to_string(),
        vertices: graph.num_vertices() as u64,
        edges: graph.num_edges(),
        mean_degree: graph.mean_degree(),
        max_degree: graph.max_degree(),
        isolated,
        memory_bytes: graph.memory_bytes(),
    }
}

/// Degree histogram in power-of-two buckets: `buckets[i]` counts vertices
/// with degree in `[2^i, 2^{i+1})`; `buckets[0]` counts degree 0 and 1.
pub fn degree_histogram(graph: &Graph) -> Vec<u64> {
    let mut buckets = vec![0u64; 1];
    for v in 0..graph.num_vertices() {
        let d = graph.degree(VertexId(v));
        let bucket = if d <= 1 {
            0
        } else {
            (u32::BITS - d.leading_zeros()) as usize - 1
        };
        if bucket >= buckets.len() {
            buckets.resize(bucket + 1, 0);
        }
        buckets[bucket] += 1;
    }
    buckets
}

/// Exact local clustering coefficient of one vertex: the fraction of its
/// neighbor pairs that are themselves linked. 0 for degree < 2.
pub fn local_clustering(graph: &Graph, v: VertexId) -> f64 {
    let neighbors = graph.neighbors(v);
    let d = neighbors.len();
    if d < 2 {
        return 0.0;
    }
    let mut closed = 0usize;
    for i in 0..d {
        for j in (i + 1)..d {
            if graph.has_edge(VertexId(neighbors[i]), VertexId(neighbors[j])) {
                closed += 1;
            }
        }
    }
    closed as f64 / (d * (d - 1) / 2) as f64
}

/// Estimate the mean local clustering coefficient by sampling `samples`
/// vertices (exact when `samples >= N`). Community-rich graphs score far
/// above Erdős–Rényi noise at equal density — a quick structural check on
/// generated stand-ins.
pub fn mean_clustering<R: mmsb_rand::RngCore>(graph: &Graph, samples: usize, rng: &mut R) -> f64 {
    use mmsb_rand::Rng;
    let n = graph.num_vertices();
    if n == 0 {
        return 0.0;
    }
    let picks: Vec<u32> = if samples >= n as usize {
        (0..n).collect()
    } else {
        rng.sample_distinct(n as usize, samples)
            .into_iter()
            .map(|i| i as u32)
            .collect()
    };
    let total: f64 = picks
        .iter()
        .map(|&v| local_clustering(graph, VertexId(v)))
        .sum();
    total / picks.len() as f64
}

/// Connected components via breadth-first search. Returns the component
/// id of every vertex (ids are dense, in order of discovery) and the
/// number of components.
pub fn connected_components(graph: &Graph) -> (Vec<u32>, usize) {
    let n = graph.num_vertices() as usize;
    let mut component = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if component[start] != u32::MAX {
            continue;
        }
        component[start] = count;
        queue.push_back(start as u32);
        while let Some(v) = queue.pop_front() {
            for &u in graph.neighbors(VertexId(v)) {
                if component[u as usize] == u32::MAX {
                    component[u as usize] = count;
                    queue.push_back(u);
                }
            }
        }
        count += 1;
    }
    (component, count as usize)
}

impl std::fmt::Display for GraphSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<18} {:>12} {:>14} {:>10.2} {:>10} {:>10}",
            self.name, self.vertices, self.edges, self.mean_degree, self.max_degree, self.isolated
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn star() -> Graph {
        let mut b = GraphBuilder::new(6);
        for i in 1..5 {
            b.add_edge(VertexId(0), VertexId(i)).unwrap();
        }
        b.build() // vertex 5 isolated
    }

    #[test]
    fn summary_counts() {
        let s = summarize("star", &star());
        assert_eq!(s.vertices, 6);
        assert_eq!(s.edges, 4);
        assert_eq!(s.max_degree, 4);
        assert_eq!(s.isolated, 1);
        assert!((s.mean_degree - 8.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets() {
        let h = degree_histogram(&star());
        // Degrees: 4, 1, 1, 1, 1, 0 → bucket0 (0..=1): 5, bucket2 ([4,8)): 1.
        assert_eq!(h[0], 5);
        assert_eq!(h[2], 1);
        assert_eq!(h.iter().sum::<u64>(), 6);
    }

    #[test]
    fn clustering_of_triangle_is_one() {
        let mut b = GraphBuilder::new(3);
        b.add_edges([
            (VertexId(0), VertexId(1)),
            (VertexId(1), VertexId(2)),
            (VertexId(0), VertexId(2)),
        ])
        .unwrap();
        let g = b.build();
        for v in 0..3 {
            assert_eq!(local_clustering(&g, VertexId(v)), 1.0);
        }
        let mut rng = mmsb_rand::Xoshiro256PlusPlus::seed_from_u64(1);
        assert_eq!(mean_clustering(&g, 10, &mut rng), 1.0);
    }

    #[test]
    fn clustering_of_star_is_zero() {
        let g = star();
        assert_eq!(local_clustering(&g, VertexId(0)), 0.0);
        assert_eq!(local_clustering(&g, VertexId(1)), 0.0); // degree 1
    }

    #[test]
    fn planted_graph_clusters_more_than_random() {
        use crate::generate::chunglu::{generate_chung_lu, ChungLuConfig};
        use crate::generate::planted::{generate_planted, PlantedConfig};
        let mut rng = mmsb_rand::Xoshiro256PlusPlus::seed_from_u64(2);
        let planted = generate_planted(
            &PlantedConfig {
                num_vertices: 600,
                num_communities: 12,
                mean_community_size: 50.0,
                memberships_per_vertex: 1.0,
                internal_degree: 12.0,
                background_degree: 0.5,
            },
            &mut rng,
        )
        .graph;
        // Near-uniform weights (large gamma) make Chung-Lu an
        // Erdos-Renyi-like null model; strong skew would itself create
        // clustered hub cores.
        let random = generate_chung_lu(
            &ChungLuConfig {
                num_vertices: 600,
                num_edges: planted.num_edges(),
                gamma: 50.0,
            },
            &mut rng,
        );
        let cp = mean_clustering(&planted, 200, &mut rng);
        let cr = mean_clustering(&random, 200, &mut rng);
        assert!(cp > 3.0 * cr, "planted {cp} vs random {cr}");
    }

    #[test]
    fn components_of_disconnected_graph() {
        let mut b = GraphBuilder::new(6);
        b.add_edges([
            (VertexId(0), VertexId(1)),
            (VertexId(1), VertexId(2)),
            (VertexId(3), VertexId(4)),
        ])
        .unwrap();
        let g = b.build(); // {0,1,2}, {3,4}, {5}
        let (component, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(component[0], component[1]);
        assert_eq!(component[1], component[2]);
        assert_eq!(component[3], component[4]);
        assert_ne!(component[0], component[3]);
        assert_ne!(component[3], component[5]);
    }

    #[test]
    fn components_of_empty_graph() {
        let g = GraphBuilder::new(4).build();
        let (component, count) = connected_components(&g);
        assert_eq!(count, 4);
        let set: std::collections::HashSet<_> = component.iter().collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn display_contains_fields() {
        let s = summarize("star", &star());
        let row = s.to_string();
        assert!(row.contains("star"));
        assert!(row.contains('6'));
        assert!(row.contains('4'));
    }
}
