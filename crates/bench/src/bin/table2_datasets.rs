//! Table II reproduction: the dataset inventory.
//!
//! Prints the SNAP originals' numbers next to the synthetic stand-ins this
//! repository actually trains on (DESIGN.md §3 documents the
//! substitution). Run with `--quick` to skip generating the two largest
//! graphs.

use mmsb::graph::stats::summarize;
use mmsb::prelude::*;
use mmsb_bench::{HarnessArgs, TableWriter};

fn main() {
    let args = HarnessArgs::parse();
    println!("Table II — SNAP datasets and their synthetic stand-ins\n");
    let mut table = TableWriter::new(
        &[
            "name",
            "orig vertices",
            "orig edges",
            "orig communities",
            "standin vertices",
            "standin edges",
            "standin communities",
            "mean deg",
            "max deg",
        ],
        args.csv.clone(),
    );
    for spec in standins() {
        let skip_large = args.quick && spec.config.num_vertices > 40_000;
        let (vertices, edges, mean_deg, max_deg) = if skip_large {
            (spec.config.num_vertices as u64, 0, 0.0, 0)
        } else {
            let generated = spec.generate();
            let summary = summarize(spec.name, &generated.graph);
            (
                summary.vertices,
                summary.edges,
                summary.mean_degree,
                summary.max_degree,
            )
        };
        table.row(&[
            format!("{} ({})", spec.name, spec.original_name),
            spec.original_vertices.to_string(),
            spec.original_edges.to_string(),
            spec.original_communities.to_string(),
            vertices.to_string(),
            if skip_large {
                "(skipped)".into()
            } else {
                edges.to_string()
            },
            spec.config.num_communities.to_string(),
            format!("{mean_deg:.1}"),
            max_deg.to_string(),
        ]);
    }
    table.finish();
    println!(
        "\nscale divisors: {}",
        standins()
            .iter()
            .map(|s| format!("{}=1/{}", s.name, s.scale_divisor))
            .collect::<Vec<_>>()
            .join(", ")
    );
}
