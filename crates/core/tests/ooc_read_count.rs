//! Frame-read budget of one out-of-core training step (DESIGN.md §15,
//! "Access pattern").
//!
//! Every edge test on the training path is a lookup in the *anchor's*
//! decoded list, so a step may open each mini-batch vertex's list once
//! (the staging) and each stratum anchor's list once (the draw) —
//! nothing else. The test counts the cache's frame lookups of one cold
//! step through the obs counters and holds them to exactly that budget:
//! the 1 KiB frames those lists span.
//! Testing `has_edge(a, b)` per sampled neighbour instead (up to 32
//! foreign lists per vertex, ~N/m per non-link stratum) overshoots it
//! roughly 30-fold.
//!
//! Each frame is cached by one region cache only, so a cold step also
//! loads each frame it needs at most once, at one thread and at two:
//! its misses are at most the distinct frames its lists span. (With a
//! cache per thread and one for the master, a frame the draw loaded was
//! loaded again by whichever worker staged the vertex.) And a miss reads
//! a frame, not the block around it: the bytes a cold step reads are at
//! most the distinct blocks its lists span times the block size, what
//! reading whole blocks cost. (This fixture's first batch reaches every
//! frame of its 8-block file, so here the two are equal.)
//!
//! One test, in a file of its own: the obs registry is process-global,
//! and any other out-of-core test running beside it would count too.

use mmsb_core::{ParallelSampler, SamplerConfig};
use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};
use mmsb_graph::heldout::HeldOut;
use mmsb_graph::minibatch::{BatchKind, MinibatchSampler, Stratum};
use mmsb_graph::VertexId;
use mmsb_obs::{id, ObsConfig, ObsLevel};
use mmsb_ooc::format::FRAME_SIZE;
use mmsb_ooc::{write_graph, BuildOptions, GraphBackend, OocGraph};
use mmsb_rand::Xoshiro256PlusPlus;

/// The `unit`-byte units (frames or blocks) the encoded list of `v`
/// touches (none for an isolated vertex).
fn units_of(file: &OocGraph, v: VertexId, unit: u64) -> std::ops::Range<u64> {
    let (start, end) = file.list_range(v.0);
    if start == end {
        0..0
    } else {
        start / unit..(end - 1) / unit + 1
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
    let lists: Vec<VertexId> = anchors.chain(vertices.iter().copied()).collect();
    let (frame, block) = (u64::from(FRAME_SIZE), u64::from(file.header().block_size));
    let budget: u64 = lists
        .iter()
        .map(|&v| units_of(&file, v, frame).count() as u64)
        .sum();
    let distinct_in = |unit: u64| {
        lists
            .iter()
            .flat_map(|&v| units_of(&file, v, unit))
            .collect::<std::collections::BTreeSet<u64>>()
            .len() as u64
    };
    let (distinct, distinct_blocks) = (distinct_in(frame), distinct_in(block));

    let obs = mmsb_obs::init(ObsConfig::at(ObsLevel::Metrics));
    let hits = || obs.metrics.counter_total(id::C_GRAPH_CACHE_HITS);
    let misses = || obs.metrics.counter_total(id::C_GRAPH_CACHE_MISSES);
    let n = graph.num_vertices();
    for threads in [1, 2] {
        // Cold caches (nothing has read yet), counters read around one
        // step.
        let mut sampler = ParallelSampler::with_backend_threads(
            GraphBackend::OutOfCore(OocGraph::open(&path).unwrap()),
            heldout.clone(),
            cfg.clone(),
            threads,
        )
        .unwrap();
        let pi_before: Vec<Vec<f32>> = (0..n).map(|v| sampler.state().pi_row(v).to_vec()).collect();
        let (hits_before, misses_before) = (hits(), misses());
        sampler.step();
        let missed = misses() - misses_before;
        let used = hits() - hits_before + missed;

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
            "{threads} threads: step made {used} frame lookups; one read per mini-batch \
             vertex list ({} vertices) and per anchor ({}) allows {budget}",
            vertices.len(),
            strata.len()
        );
        assert!(
            missed <= distinct,
            "{threads} threads: a cold step missed {missed} times; its lists span \
             {distinct} distinct frames"
        );
        assert!(
            missed * frame <= distinct_blocks * block,
            "{threads} threads: a cold step read {missed} frames of {frame} bytes; whole \
             blocks would be {distinct_blocks} of {block} bytes"
        );
    }
    mmsb_obs::set_level(ObsLevel::Off);
    let _ = std::fs::remove_file(&path);
}
