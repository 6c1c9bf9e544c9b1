//! Pins the zero-allocation steady-state contract: after warmup, a
//! [`ParallelSampler`] `step()` must never touch the heap — and neither
//! may a warmed lockstep [`DistributedSampler`] `step()` +
//! `evaluate_perplexity()` in either pipeline mode, a warmed
//! double-buffered [`ChunkReader`] pass (the pipelined `pi` load path of
//! the distributed samplers) nor a warmed out-of-core
//! [`mmsb_ooc::BlockCache`] read loop (the graph path of the ooc
//! backend). Every per-iteration buffer is pre-reserved at its hard
//! upper bound (`Engine::with_backend`, `StepBuffers::new`, `Workspace::new`,
//! `ReaderScratch`, the cache's block storage and decode scratch) or
//! grows to its high-water mark during warm-up (`PhiWorker`), the
//! pool and the background worker publish tasks as unboxed pointer
//! pairs, and the mini-batch/neighbor machinery reuses its vectors — so
//! the counter below must stay at exactly zero.
//!
//! This file holds a single test on purpose: the counting allocator is
//! process-global, and a concurrently running test would pollute the
//! count.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use mmsb_core::{
    Backend, DistributedConfig, DistributedSampler, ParallelSampler, SamplerConfig, SimdPolicy,
};
use mmsb_dkv::pipeline::{ChunkReader, PipelineMode, ReaderScratch};
use mmsb_dkv::{DkvStore, Partition, ShardedStore};
use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};
use mmsb_graph::heldout::HeldOut;
use mmsb_netsim::NetworkModel;
use mmsb_obs::{ObsConfig, ObsLevel};
use mmsb_rand::Xoshiro256PlusPlus;

/// Wraps [`System`], counting allocations and reallocations (not frees:
/// a free without a matching alloc is impossible, and counting both
/// would double-report) while the gate is up.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments verbatim to `System`, so
// the `GlobalAlloc` contract holds exactly as `System` upholds it; the
// added counting is a relaxed atomic increment with no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: (applies to all four methods) the caller's obligations are passed
    // through unchanged to `System`, which imposes identical ones.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded verbatim; see the impl-level comment.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards verbatim; see the impl-level comment.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded verbatim; see the impl-level comment.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: forwards verbatim; see the impl-level comment.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded verbatim; see the impl-level comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: forwards verbatim; see the impl-level comment.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; see the impl-level comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_step_is_allocation_free() {
    // Full observability stays on for the whole test: the obs registry
    // and span ring are sized once here, so counters, histograms, and
    // span records land in pre-allocated atomic slots. The gates below
    // therefore also prove instrumentation costs zero heap traffic.
    mmsb_obs::init(ObsConfig::at(ObsLevel::Spans));

    let mut rng = Xoshiro256PlusPlus::seed_from_u64(11);
    let gen = generate_planted(
        &PlantedConfig {
            num_vertices: 300,
            num_communities: 6,
            mean_community_size: 55.0,
            memberships_per_vertex: 1.1,
            internal_degree: 10.0,
            background_degree: 0.5,
        },
        &mut rng,
    );
    let (graph, heldout) = HeldOut::split(&gen.graph, 60, &mut rng);

    // The default config uses stratified-node mini-batches, the strategy
    // the zero-allocation contract covers (random-pair dedup keeps a
    // rebuild-per-draw hash set and is exempt). Both kernel backends must
    // uphold the contract: each exercises the pre-reserved `PhiScratch` /
    // `ThetaScratch` planes and the pre-drawn noise buffer in
    // `Workspace` through its own dispatch arm — forcing the widest
    // detected backend pins that even on hosts where `Auto` would pick
    // it anyway.
    let backends = [Backend::Scalar, Backend::detect()];
    for (i, &backend) in backends.iter().enumerate() {
        if i > 0 && backend == Backend::Scalar {
            continue; // no SIMD on this host; the scalar pass covered it
        }
        let config = SamplerConfig::new(8)
            .with_seed(7)
            .with_simd(SimdPolicy::Force(backend));
        let mut sampler =
            ParallelSampler::with_threads(graph.clone(), heldout.clone(), config, 3).unwrap();

        // Warm up: first iterations may still grow lazily-reserved buffers
        // (e.g. the strata vector on its first stratified draw).
        sampler.run(60);

        COUNTING.store(true, Ordering::SeqCst);
        sampler.run(40);
        COUNTING.store(false, Ordering::SeqCst);

        let n = ALLOCS.swap(0, Ordering::SeqCst);
        assert_eq!(
            n, 0,
            "steady-state step() on {backend} hit the allocator {n} times over 40 iterations"
        );
    }

    // ---- lockstep master–worker driver, both pipeline modes ----
    // Every per-rank buffer of `step()` and `evaluate_perplexity()` (the
    // write-back keys and rows, the pair and held-out endpoint keys, the
    // theta gradients) lives in the shared worker state, and the reader
    // owns its scratch — so once each has seen its largest share the
    // whole iteration, perplexity gather included, stays off the heap.
    for mode in [PipelineMode::Single, PipelineMode::Double] {
        let mut sampler = DistributedSampler::new(
            graph.clone(),
            heldout.clone(),
            SamplerConfig::new(8).with_seed(7),
            DistributedConfig::das5(3).with_pipeline(mode),
        )
        .unwrap();
        for _ in 0..60 {
            sampler.step();
            sampler.evaluate_perplexity();
        }

        COUNTING.store(true, Ordering::SeqCst);
        let mut perplexity = 0.0;
        for _ in 0..40 {
            sampler.step();
            perplexity = sampler.evaluate_perplexity();
        }
        COUNTING.store(false, Ordering::SeqCst);
        assert!(perplexity.is_finite());

        let n = ALLOCS.swap(0, Ordering::SeqCst);
        assert_eq!(
            n, 0,
            "warmed lockstep step() + evaluate_perplexity() under {mode:?} hit the allocator \
             {n} times over 40 iterations"
        );
    }

    // ---- pipelined path: a warmed double-buffered reader pass ----
    // The real double-buffered loader must also be allocation-free once
    // warm: the ping-pong row buffers, timing vectors, and chunk table
    // live in the ReaderScratch, and the background worker receives its
    // task as an unboxed pointer pair. The counter is process-global, so
    // any allocation on the prefetch thread would be caught too.
    let row_len = 9;
    let mut store = ShardedStore::new(Partition::new(512, 4), row_len);
    let keys: Vec<u32> = (0..512).collect();
    let vals = vec![1.0f32; keys.len() * row_len];
    store.write_batch(&keys, &vals).unwrap();
    let net = NetworkModel::fdr_infiniband();
    let mut reader = ChunkReader::new(64, PipelineMode::Double);
    let mut scratch = ReaderScratch::new();
    let mut acc = 0.0f64;
    for _ in 0..5 {
        reader
            .run(&store, 0, &keys, &net, &mut scratch, |_, _, rows| {
                acc += rows[0] as f64;
            })
            .unwrap();
    }

    COUNTING.store(true, Ordering::SeqCst);
    for _ in 0..20 {
        reader
            .run(&store, 0, &keys, &net, &mut scratch, |_, _, rows| {
                acc += rows[0] as f64;
            })
            .unwrap();
    }
    COUNTING.store(false, Ordering::SeqCst);
    assert!(acc > 0.0);

    let n = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        n, 0,
        "warmed double-buffered reader hit the allocator {n} times over 20 passes"
    );

    // ---- write path: warmed write_batch calls ----
    // The duplicate-key check sorts a copy of the batch in a store-owned
    // scratch vector; once that scratch has grown to the largest batch
    // seen, repeated writes (the per-iteration `pi` publish) must not
    // allocate either. The first call above already warmed it with the
    // full 512-key batch, so both full and partial rewrites stay clean.
    let half: Vec<u32> = (0..256).collect();
    let half_vals = vec![2.0f32; half.len() * row_len];
    COUNTING.store(true, Ordering::SeqCst);
    for _ in 0..20 {
        store.write_batch(&keys, &vals).unwrap();
        store.write_batch(&half, &half_vals).unwrap();
    }
    COUNTING.store(false, Ordering::SeqCst);

    let n = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        n, 0,
        "warmed write_batch hit the allocator {n} times over 40 writes"
    );

    // ---- out-of-core graph path: warmed BlockCache reads ----
    // The cache's block storage is sized at construction and the decode
    // scratch is reserved at `max_degree`, so once every block has been
    // faulted in, neighbor decodes and membership probes must never
    // touch the heap — even though instrumentation (cache counters, the
    // read-latency histogram) stays fully on.
    let dir = std::env::temp_dir().join(format!("mmsb-zero-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("graph.ooc");
    mmsb_ooc::write_graph(
        &graph,
        &path,
        mmsb_ooc::BuildOptions {
            block_size: 4096,
            ..mmsb_ooc::BuildOptions::default()
        },
    )
    .unwrap();
    let ooc = mmsb_ooc::OocGraph::open(&path).unwrap();
    // Oversize the cache so the working set is eviction-free once warm.
    let mut cache = mmsb_ooc::BlockCache::for_graph(&ooc, 4 * ooc.header().num_blocks as usize, 5);
    let mut edges_seen = 0u64;
    {
        let mut reader = mmsb_ooc::OocReader::new(&ooc, &mut cache);
        for v in 0..ooc.num_vertices() {
            edges_seen += reader.try_neighbors(mmsb_graph::VertexId(v)).unwrap().len() as u64;
        }
        assert!(edges_seen > 0);

        COUNTING.store(true, Ordering::SeqCst);
        for _ in 0..10 {
            for v in 0..ooc.num_vertices() {
                edges_seen +=
                    reader.try_neighbors(mmsb_graph::VertexId(v)).unwrap().len() as u64;
                let probe = mmsb_graph::VertexId((v + 1) % ooc.num_vertices());
                edges_seen +=
                    u64::from(reader.try_has_edge(mmsb_graph::VertexId(v), probe).unwrap());
            }
        }
        COUNTING.store(false, Ordering::SeqCst);
    }
    assert!(edges_seen > 0);

    let n = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        n, 0,
        "warmed out-of-core read loop hit the allocator {n} times over 10 passes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
