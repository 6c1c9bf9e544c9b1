//! File-based pipeline: SNAP edge list in, communities out.
//!
//! ```text
//! cargo run --release -p mmsb --example dataset_pipeline [path/to/edges.txt]
//! ```
//!
//! Without an argument, the example first *writes* a SNAP-format file from
//! a synthetic graph (so it is self-contained), then loads it back the way
//! a user would load a real download from snap.stanford.edu, splits a
//! held-out set, trains, and saves the detected communities to a text
//! file.

use mmsb::graph::io;
use mmsb::prelude::*;
use std::io::Write as _;
use std::path::PathBuf;

fn main() {
    let arg = std::env::args().nth(1);
    let dir = std::env::temp_dir().join("mmsb_dataset_pipeline");
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    // 1. Obtain an edge-list file.
    let path: PathBuf = match arg {
        Some(p) => PathBuf::from(p),
        None => {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
            let generated = generate_planted(
                &PlantedConfig {
                    num_vertices: 800,
                    num_communities: 16,
                    mean_community_size: 55.0,
                    memberships_per_vertex: 1.1,
                    internal_degree: 12.0,
                    background_degree: 0.5,
                },
                &mut rng,
            );
            let path = dir.join("synthetic_edges.txt");
            io::save_edge_list(&generated.graph, &path).expect("write edge list");
            println!(
                "wrote synthetic SNAP-format edge list to {}",
                path.display()
            );
            path
        }
    };

    // 2. Load it (densifies arbitrary vertex ids).
    let loaded = io::load_edge_list(&path).expect("readable SNAP edge list");
    println!(
        "loaded {}: {} vertices, {} edges",
        path.display(),
        loaded.graph.num_vertices(),
        loaded.graph.num_edges()
    );

    // 3. Train/held-out split and training.
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(17);
    let heldout_links = (loaded.graph.num_edges() / 50).max(10) as usize;
    let (train, heldout) = HeldOut::split(&loaded.graph, heldout_links, &mut rng);
    let k = 16;
    let config = SamplerConfig::new(k)
        .with_seed(1)
        .with_minibatch(Strategy::StratifiedNode {
            partitions: 16,
            anchors: 24,
        });
    let mut sampler = ParallelSampler::new(train, heldout, config).expect("valid configuration");
    for round in 1..=5 {
        sampler.run(400);
        println!(
            "round {round}: iteration {}, perplexity {:.4}",
            sampler.iteration(),
            sampler.evaluate_perplexity()
        );
    }

    // 4. Save communities, mapping dense ids back to the file's ids.
    let communities = sampler.communities(0.08);
    let out_path = dir.join("communities.txt");
    let mut out = std::fs::File::create(&out_path).expect("create output file");
    writeln!(out, "# community_id\tmember_original_ids").unwrap();
    for (kidx, members) in communities.members.iter().enumerate() {
        if members.is_empty() {
            continue;
        }
        let ids: Vec<String> = members
            .iter()
            .map(|&v| loaded.original_id(v).to_string())
            .collect();
        writeln!(out, "{kidx}\t{}", ids.join(" ")).unwrap();
    }
    println!(
        "saved {} non-empty communities to {}",
        communities.num_nonempty(),
        out_path.display()
    );
}
