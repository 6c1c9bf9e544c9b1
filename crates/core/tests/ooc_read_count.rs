//! Block-read budget of one out-of-core training step (DESIGN.md §15,
//! "Access pattern").
//!
//! Every edge test on the training path is a lookup in the *anchor's*
//! decoded list, so a step may open each mini-batch vertex's list once
//! (the phi update) and each stratum anchor's list once (the draw) —
//! nothing else. The test counts the cache lookups of one cold step
//! through the obs counters and holds them to exactly that budget.
//! Testing `has_edge(a, b)` per sampled neighbour instead (up to 32
//! foreign lists per vertex, ~N/m per non-link stratum) overshoots it
//! roughly 30-fold.
//!
//! One test, in a file of its own: the obs registry is process-global,
//! and any other out-of-core test running beside it would count too.

use mmsb_core::{ParallelSampler, SamplerConfig};
use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};
use mmsb_graph::heldout::HeldOut;
use mmsb_graph::minibatch::{BatchKind, MinibatchSampler, Stratum};
use mmsb_graph::VertexId;
use mmsb_obs::{id, ObsConfig, ObsLevel};
use mmsb_ooc::{write_graph, BuildOptions, GraphBackend, OocGraph};
use mmsb_rand::Xoshiro256PlusPlus;

/// Blocks the encoded list of `v` touches (0 for an isolated vertex).
fn blocks_spanned(file: &OocGraph, v: VertexId) -> u64 {
    let (start, end) = file.list_range(v.0);
    let bs = u64::from(file.header().block_size);
    if start == end {
        0
    } else {
        (end - 1) / bs - start / bs + 1
    }
}

#[test]
fn a_step_opens_each_minibatch_list_once() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(61);
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
    let (graph, heldout) = HeldOut::split(&gen.graph, 80, &mut rng);
    let path = std::env::temp_dir().join(format!("mmsb-ooc-read-count-{}.ooc", std::process::id()));
    let opts = BuildOptions {
        block_size: 4096,
        ..BuildOptions::default()
    };
    write_graph(&graph, &path, opts).unwrap();
    let file = OocGraph::open(&path).unwrap();
    assert!(
        file.header().num_blocks > 4,
        "fixture must span several blocks"
    );

    let cfg = SamplerConfig::new(6)
        .with_seed(33)
        .with_graph_cache_blocks(8);
    let minibatch = MinibatchSampler::new(cfg.minibatch);
    let mut sampler = ParallelSampler::with_backend_threads(
        GraphBackend::OutOfCore(OocGraph::open(&path).unwrap()),
        heldout.clone(),
        cfg.clone(),
        1,
    )
    .unwrap();

    // Replay the draw the first step makes: the master stream is stream
    // 0 of the seed, and the resident graph holds the same adjacency as
    // the file. (Checked below against the rows the step rewrote.)
    let mut master = Xoshiro256PlusPlus::stream(cfg.seed, 0);
    let mb = minibatch.sample(&graph, Some(&heldout), &mut master);
    let BatchKind::Strata(strata) = &mb.kind else {
        panic!("the default strategy is stratified");
    };
    let anchors = strata.iter().map(|s| match *s {
        Stratum::LinkSet { anchor } | Stratum::NonLinkSet { anchor, .. } => anchor,
    });
    let vertices = mb.vertices();
    let budget: u64 = anchors
        .chain(vertices.iter().copied())
        .map(|v| blocks_spanned(&file, v))
        .sum();

    // Cold caches (nothing has read yet), counters armed for one step.
    let obs = mmsb_obs::init(ObsConfig::at(ObsLevel::Metrics));
    let lookups = || {
        obs.metrics.counter_total(id::C_GRAPH_CACHE_HITS)
            + obs.metrics.counter_total(id::C_GRAPH_CACHE_MISSES)
    };
    let n = graph.num_vertices();
    let pi_before: Vec<Vec<f32>> = (0..n).map(|v| sampler.state().pi_row(v).to_vec()).collect();
    let before = lookups();
    sampler.step();
    let used = lookups() - before;
    mmsb_obs::set_level(ObsLevel::Off);
    let _ = std::fs::remove_file(&path);

    let rewritten: Vec<VertexId> = (0..n)
        .filter(|&v| sampler.state().pi_row(v) != pi_before[v as usize].as_slice())
        .map(VertexId)
        .collect();
    assert_eq!(
        rewritten, vertices,
        "replayed a different draw than the step made"
    );
    assert!(used > 0, "the step read nothing through the cache");
    assert!(
        used <= budget,
        "step made {used} block lookups; one read per mini-batch vertex list \
         ({} vertices) and per anchor ({}) allows {budget}",
        vertices.len(),
        strata.len()
    );
}
