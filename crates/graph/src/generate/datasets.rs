//! Synthetic stand-ins for the six SNAP datasets of Table II.
//!
//! Each stand-in preserves, at a documented scale factor, the aspects of
//! the original that matter to the sampler: vertex/edge ratio (mean
//! degree), the presence of many overlapping ground-truth communities, and
//! heavy-tailed density variation. The absolute sizes are reduced so that
//! every experiment in the evaluation runs on one machine (DESIGN.md §3).

use super::planted::{generate_planted, PlantedConfig};
use super::GeneratedGraph;
use mmsb_rand::Xoshiro256PlusPlus;

/// Description of one dataset stand-in, including the numbers of the SNAP
/// original it substitutes for (Table II of the paper).
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Stand-in name (`syn-*`).
    pub name: &'static str,
    /// SNAP original's name.
    pub original_name: &'static str,
    /// Vertices in the SNAP original.
    pub original_vertices: u64,
    /// Edges in the SNAP original.
    pub original_edges: u64,
    /// Ground-truth communities in the SNAP original.
    pub original_communities: u64,
    /// Linear scale factor applied to the vertex count.
    pub scale_divisor: u64,
    /// Generator parameters for the stand-in.
    pub config: PlantedConfig,
    /// Seed used by [`DatasetSpec::generate`].
    pub seed: u64,
    /// One-line description (mirrors Table II's description column).
    pub description: &'static str,
}

impl DatasetSpec {
    /// Generate the stand-in graph deterministically from its seed.
    pub fn generate(&self) -> GeneratedGraph {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(self.seed);
        generate_planted(&self.config, &mut rng)
    }
}

fn planted(n: u32, mean_size: f64, mean_degree: f64, overlap: f64) -> PlantedConfig {
    // 80% of degree from community structure, 20% background noise, the
    // regime where overlapping structure dominates but is not trivial.
    // Community sizes follow real SNAP ground truth (tens of members), so
    // the intra-community density — the signal the sampler learns from —
    // stays strong.
    let communities = ((n as f64 * overlap / mean_size).round() as usize).max(1);
    let internal = 0.8 * mean_degree / overlap;
    PlantedConfig {
        num_vertices: n,
        num_communities: communities,
        mean_community_size: mean_size,
        memberships_per_vertex: overlap,
        internal_degree: internal,
        background_degree: 0.2 * mean_degree,
    }
}

/// The six stand-ins corresponding to Table II, ordered as in the paper.
pub fn standins() -> Vec<DatasetSpec> {
    vec![
        DatasetSpec {
            name: "syn-livejournal",
            original_name: "com-LiveJournal",
            original_vertices: 3_997_962,
            original_edges: 34_681_189,
            original_communities: 287_512,
            scale_divisor: 100,
            config: planted(39_980, 50.0, 17.3, 1.3),
            seed: 0x11A1,
            description: "Online blogging social network",
        },
        DatasetSpec {
            name: "syn-friendster",
            original_name: "com-Friendster",
            original_vertices: 65_608_366,
            original_edges: 1_806_067_135,
            original_communities: 957_154,
            scale_divisor: 1000,
            config: planted(65_608, 60.0, 55.0, 1.3),
            seed: 0x11A2,
            description: "Online gaming social network",
        },
        DatasetSpec {
            name: "syn-orkut",
            original_name: "com-Orkut",
            original_vertices: 3_072_441,
            original_edges: 117_185_083,
            original_communities: 6_288_363,
            scale_divisor: 100,
            config: planted(30_724, 60.0, 76.3, 1.5),
            seed: 0x11A3,
            description: "Online social network",
        },
        DatasetSpec {
            name: "syn-youtube",
            original_name: "com-Youtube",
            original_vertices: 1_134_890,
            original_edges: 2_987_624,
            original_communities: 8_385,
            scale_divisor: 100,
            config: planted(11_348, 40.0, 5.3, 1.2),
            seed: 0x11A4,
            description: "Video-sharing social network",
        },
        DatasetSpec {
            name: "syn-dblp",
            original_name: "com-DBLP",
            original_vertices: 317_080,
            original_edges: 1_049_866,
            original_communities: 13_477,
            scale_divisor: 10,
            config: planted(31_708, 30.0, 6.6, 1.4),
            seed: 0x11A5,
            description: "Computer science bibliography collaboration network",
        },
        DatasetSpec {
            name: "syn-amazon",
            original_name: "com-Amazon",
            original_vertices: 334_863,
            original_edges: 925_872,
            original_communities: 75_149,
            scale_divisor: 10,
            config: planted(33_486, 35.0, 5.5, 1.2),
            seed: 0x11A6,
            description: "Product co-purchasing network",
        },
    ]
}

/// Look up a stand-in by its `syn-*` name (or the SNAP original's name).
pub fn by_name(name: &str) -> Option<DatasetSpec> {
    standins()
        .into_iter()
        .find(|s| s.name == name || s.original_name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_standins_matching_table_ii() {
        let all = standins();
        assert_eq!(all.len(), 6);
        let friendster = &all[1];
        assert_eq!(friendster.original_vertices, 65_608_366);
        assert_eq!(friendster.original_edges, 1_806_067_135);
        // Scale sanity: stand-in N ≈ original / divisor.
        for s in &all {
            let expected = s.original_vertices / s.scale_divisor;
            let got = s.config.num_vertices as u64;
            let rel = (got as f64 - expected as f64).abs() / expected as f64;
            assert!(rel < 0.02, "{}: N {got} vs scaled {expected}", s.name);
        }
    }

    #[test]
    fn by_name_finds_both_names() {
        assert!(by_name("syn-dblp").is_some());
        assert!(by_name("com-DBLP").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn smallest_standin_generates_with_plausible_degree() {
        let spec = by_name("syn-youtube").unwrap();
        let g = spec.generate();
        assert_eq!(g.graph.num_vertices(), spec.config.num_vertices);
        let target = 5.3;
        let got = g.graph.mean_degree();
        assert!(
            (got - target).abs() / target < 0.35,
            "mean degree {got} vs target {target}"
        );
        assert_eq!(
            g.ground_truth.num_communities(),
            spec.config.num_communities
        );
        assert!(g.ground_truth.num_communities() > 100);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = by_name("syn-youtube").unwrap();
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
    }
}
