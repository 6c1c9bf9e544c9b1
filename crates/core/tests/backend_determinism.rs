//! Bitwise determinism across graph backends (DESIGN.md §15).
//!
//! The out-of-core contract: the [`mmsb_ooc::BlockCache`] is pure
//! scratch — a hit and a miss return the same CRC-verified bytes, and
//! decoded lists are byte-identical to the resident CSR's adjacency —
//! so for a fixed seed the chain is a pure function of the graph, never
//! of where its bytes live. The tests pin that at the strictest level:
//! `pi` rows, `theta`, and the held-out perplexity must match the
//! resident reference *bitwise*, for sequential and parallel drivers,
//! across thread counts, and for a cache small enough that every
//! mini-batch evicts blocks.
//!
//! Training tests each edge against the *anchor's* list
//! (`mmsb_graph::access::mark_links`) while one-off probes open the
//! lower-degree endpoint's. On the planted graph's near-uniform degrees
//! the two sides rarely differ, so a Chung–Lu power-law graph — hubs as
//! anchors and as mini-batch vertices — runs through the same check
//! under both mini-batch strategies.

use std::path::PathBuf;

use mmsb_core::{ParallelSampler, SamplerConfig};
use mmsb_graph::generate::chunglu::{generate_chung_lu, ChungLuConfig};
use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};
use mmsb_graph::heldout::HeldOut;
use mmsb_graph::minibatch::Strategy;
use mmsb_graph::Graph;
use mmsb_ooc::{write_graph, BuildOptions, GraphBackend, OocGraph};
use mmsb_rand::Xoshiro256PlusPlus;

/// A planted graph big enough that its 4 KiB-block file spans more
/// blocks than the smallest cache holds (so evictions really happen).
fn setup(seed: u64) -> (Graph, HeldOut) {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let gen = generate_planted(
        &PlantedConfig {
            num_vertices: 900,
            num_communities: 9,
            mean_community_size: 105.0,
            memberships_per_vertex: 1.2,
            internal_degree: 26.0,
            background_degree: 1.0,
        },
        &mut rng,
    );
    HeldOut::split(&gen.graph, 80, &mut rng)
}

fn snapshot(state: &mmsb_core::ModelState) -> (Vec<Vec<f32>>, Vec<f64>) {
    let pi = (0..state.n()).map(|a| state.pi_row(a).to_vec()).collect();
    (pi, state.theta().to_vec())
}

fn temp_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mmsb-backend-det-{}-{tag}.ooc", std::process::id()))
}

/// Run the resident reference chain, then every out-of-core variant,
/// and require bitwise equality.
fn assert_chain_matches_resident(graph: &Graph, heldout: &HeldOut, cfg: &SamplerConfig, tag: &str) {
    let path = temp_file(tag);
    write_graph(
        graph,
        &path,
        BuildOptions {
            block_size: 4096,
            ..BuildOptions::default()
        },
    )
    .unwrap();
    let iters = 5;

    // Resident reference chain.
    let mut seq = ParallelSampler::with_threads(graph.clone(), heldout.clone(), cfg.clone(), 1).unwrap();
    seq.run(iters);
    let (ref_pi, ref_theta) = snapshot(seq.state());
    let ref_ppx = seq.evaluate_perplexity();

    // Sequential out-of-core at several cache sizes. The smallest
    // capacity request rounds up to one 4-way set — fewer slots than the
    // file has blocks, so training constantly evicts; the largest holds
    // the whole file. All must be bit-identical to the resident chain.
    for cache_blocks in [1usize, 8, 256] {
        let ooc = OocGraph::open(&path).unwrap();
        if cache_blocks == 1 {
            assert!(
                ooc.header().num_blocks > 4,
                "fixture too small to force evictions: {} blocks",
                ooc.header().num_blocks
            );
        }
        let mut s = ParallelSampler::with_backend_threads(
            GraphBackend::OutOfCore(ooc),
            heldout.clone(),
            cfg.clone().with_graph_cache_blocks(cache_blocks),
            1,
        )
        .unwrap();
        s.run(iters);
        let (pi, theta) = snapshot(s.state());
        assert_eq!(ref_pi, pi, "pi diverged at cache_blocks={cache_blocks}");
        assert_eq!(ref_theta, theta, "theta diverged at cache_blocks={cache_blocks}");
        assert_eq!(
            ref_ppx.to_bits(),
            s.evaluate_perplexity().to_bits(),
            "perplexity diverged at cache_blocks={cache_blocks}"
        );
    }

    // Parallel out-of-core across thread counts, still on the tiny
    // eviction-heavy cache: per-worker caches are scratch too.
    for threads in [2usize, 3] {
        let ooc = OocGraph::open(&path).unwrap();
        let mut p = ParallelSampler::with_backend_threads(
            GraphBackend::OutOfCore(ooc),
            heldout.clone(),
            cfg.clone().with_graph_cache_blocks(1),
            threads,
        )
        .unwrap();
        p.run(iters);
        let (pi, theta) = snapshot(p.state());
        assert_eq!(ref_pi, pi, "pi diverged at {threads} threads");
        assert_eq!(ref_theta, theta, "theta diverged at {threads} threads");
        assert_eq!(
            ref_ppx.to_bits(),
            p.evaluate_perplexity().to_bits(),
            "perplexity diverged at {threads} threads"
        );
    }

    let _ = std::fs::remove_file(&path);
}

#[test]
fn out_of_core_chain_matches_resident_bitwise() {
    let (graph, heldout) = setup(51);
    let cfg = SamplerConfig::new(6).with_seed(33);
    assert_chain_matches_resident(&graph, &heldout, &cfg, "main");
}

/// Power-law degrees: the top hub is adjacent to a large share of the
/// graph, so it is a mini-batch vertex of nearly every step and, with
/// 64 anchors a step, hubs anchor strata too. Anchor-side edge tests
/// then read the *higher*-degree list where `has_edge` reads the lower.
#[test]
fn power_law_chain_matches_resident_bitwise() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(53);
    let graph = generate_chung_lu(
        &ChungLuConfig {
            num_vertices: 2000,
            num_edges: 16_000,
            gamma: 2.5,
        },
        &mut rng,
    );
    assert!(graph.max_degree() > 300, "no hub: max degree {}", graph.max_degree());
    let (graph, heldout) = HeldOut::split(&graph, 80, &mut rng);
    for (tag, strategy) in [
        ("pl-strat", Strategy::StratifiedNode { partitions: 40, anchors: 64 }),
        ("pl-pairs", Strategy::RandomPair { size: 256 }),
    ] {
        let cfg = SamplerConfig::new(6).with_seed(35).with_minibatch(strategy);
        assert_chain_matches_resident(&graph, &heldout, &cfg, tag);
    }
}

/// The block size is a storage knob, not a model knob: refiling the
/// same graph at a different block size must leave the chain untouched.
#[test]
fn block_size_never_reaches_the_chain() {
    let (graph, heldout) = setup(52);
    let cfg = SamplerConfig::new(5).with_seed(37).with_graph_cache_blocks(2);
    let mut runs = Vec::new();
    for block_size in [4096u32, 16384] {
        let path = temp_file(&format!("bs-{block_size}"));
        write_graph(
            &graph,
            &path,
            BuildOptions {
                block_size,
                ..BuildOptions::default()
            },
        )
        .unwrap();
        let ooc = OocGraph::open(&path).unwrap();
        let mut s =
            ParallelSampler::with_backend_threads(GraphBackend::OutOfCore(ooc), heldout.clone(), cfg.clone(), 1)
                .unwrap();
        s.run(4);
        runs.push((snapshot(s.state()), s.evaluate_perplexity().to_bits()));
        let _ = std::fs::remove_file(&path);
    }
    assert_eq!(runs[0], runs[1], "block size leaked into the chain");
}
