//! Pins the zero-allocation steady-state contract: after warmup, a
//! [`ParallelSampler`] `step()` must never touch the heap — and neither
//! may a warmed lockstep [`DistributedSampler`] `step()` +
//! `evaluate_perplexity()` in either pipeline mode (the same pool step,
//! writing its DKV key record, then the priced, chunked `pi` load),
//! warmed `ShardedStore` writes, a warmed out-of-core
//! [`mmsb_ooc::BlockCache`] read loop, whether every read hits or every
//! read evicts, reads, CRCs and decodes a frame, nor a warmed
//! out-of-core `step()` at two threads (the draw through the region
//! caches, the staging fan-out, the phi stage on the staged lists). A checkpoint shares the model planes instead of
//! copying them: capturing and saving one on a 20 000-vertex, K = 16
//! sampler stays under a fixed byte budget, the step after it is dropped
//! allocates nothing, and a live checkpoint keeps its bytes while the
//! chain moves on. Every per-iteration buffer is pre-reserved at its hard
//! upper bound (`Engine::with_backend`, `StepBuffers::new`, `Workspace::new`,
//! `StepRecord::with_capacity`, the cache's frame storage and decode scratch, the
//! staged adjacency: the batch's largest possible lists) or
//! grows to its high-water mark during warm-up (the lockstep driver's
//! pricing key buffers), the pool publishes jobs as unboxed
//! pointer pairs, and the mini-batch/neighbor machinery reuses its
//! vectors — so the counter below must stay at
//! exactly zero.
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
use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};
use mmsb_graph::heldout::HeldOut;
use mmsb_graph::minibatch::Strategy;
use mmsb_netsim::dkv::{DkvStore, Partition, PipelineMode, ShardedStore};
use mmsb_obs::{ObsConfig, ObsLevel};
use mmsb_rand::Xoshiro256PlusPlus;

/// Wraps [`System`], counting allocations and reallocations (not frees:
/// a free without a matching alloc is impossible, and counting both
/// would double-report) and the bytes they request while the gate is up.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static ALLOC_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Record one allocation of `bytes` if the gate is up.
fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Run `f` with the gate up; returns its result and the bytes it
/// requested from the allocator.
fn bytes_allocated<R>(f: impl FnOnce() -> R) -> (R, usize) {
    ALLOC_BYTES.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (out, ALLOC_BYTES.swap(0, Ordering::SeqCst))
}

// SAFETY: every method forwards its arguments verbatim to `System`, so
// the `GlobalAlloc` contract holds exactly as `System` upholds it; the
// added counting is a relaxed atomic increment with no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: (applies to all four methods) the caller's obligations are passed
    // through unchanged to `System`, which imposes identical ones.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; see the impl-level comment.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards verbatim; see the impl-level comment.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; see the impl-level comment.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: forwards verbatim; see the impl-level comment.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

    // ---- checkpoints share the model planes ----
    // One copy of `pi` and `sum(phi)` here is 4·n·(K + 1) ≈ 1.3 MB; a
    // capture shares both and copies only theta, beta and the held-out
    // perplexity sums, and a save adds its 64 KiB write buffer. Fine
    // non-link strata keep the mini-batches (and the test) small.
    let big = generate_planted(
        &PlantedConfig {
            num_vertices: 20_000,
            num_communities: 200,
            mean_community_size: 110.0,
            memberships_per_vertex: 1.1,
            internal_degree: 6.0,
            background_degree: 0.5,
        },
        &mut rng,
    )
    .graph;
    assert!(big.num_vertices() >= 20_000);
    let (big_graph, big_heldout) = HeldOut::split(&big, 200, &mut rng);
    let sampler = |graph, heldout| {
        let config = SamplerConfig::new(16)
            .with_seed(5)
            .with_minibatch(Strategy::StratifiedNode {
                partitions: 1000,
                anchors: 8,
            });
        ParallelSampler::with_threads(graph, heldout, config, 2).unwrap()
    };
    let mut live = sampler(big_graph.clone(), big_heldout.clone());
    let mut twin = sampler(big_graph, big_heldout);
    live.run(30);
    twin.run(30);

    let (ckpt, bytes) = bytes_allocated(|| live.checkpoint());
    assert!(bytes < 64 << 10, "checkpoint() allocated {bytes} bytes");
    let taken = ckpt.to_bytes();
    live.run(3);
    assert!(
        ckpt.to_bytes() == taken,
        "steps after a capture changed the live checkpoint"
    );
    drop(ckpt);

    let ckpt_dir =
        std::env::temp_dir().join(format!("mmsb-zero-alloc-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&ckpt_dir).unwrap();
    let ckpt_path = ckpt_dir.join("live.ckpt");
    let (saved, bytes) = bytes_allocated(|| live.checkpoint().save(&ckpt_path));
    saved.unwrap();
    assert!(
        bytes < 128 << 10,
        "checkpoint().save() allocated {bytes} bytes"
    );
    std::fs::remove_dir_all(&ckpt_dir).unwrap();

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    live.step();
    COUNTING.store(false, Ordering::SeqCst);
    let n = ALLOCS.swap(0, Ordering::SeqCst);
    assert_eq!(
        n, 0,
        "the step after a dropped checkpoint hit the allocator {n} times"
    );

    twin.run(4);
    assert!(
        live.checkpoint().to_bytes() == twin.checkpoint().to_bytes(),
        "checkpointing moved the chain"
    );

    // ---- lockstep master–worker driver, both pipeline modes ----
    // The step is the pool driver's, on its workspaces and `StepBuffers`,
    // and its `phi` fan-out also writes every batch vertex's DKV keys
    // into the sampler's pre-sized key record. Pricing copies each rank's
    // share of the record into one key buffer on the sampler; once that
    // has seen its largest share the whole iteration, pool fan-out,
    // pricing and perplexity included, stays off the heap.
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

    let row_len = 9;
    let keys: Vec<u32> = (0..512).collect();

    // ---- write path: warmed write_batch calls ----
    // The duplicate-key check sorts a copy of the batch in a store-owned
    // scratch vector; once that scratch has grown to the largest batch
    // seen, repeated writes must not allocate either. The first call
    // below warms it with the full 512-key batch, so both full and
    // partial rewrites stay clean.
    let mut store = ShardedStore::new(Partition::new(512, 4), row_len);
    let vals = vec![1.0f32; keys.len() * row_len];
    store.write_batch(&keys, &vals).unwrap();
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
    // The cache's frame storage is sized at construction and the decode
    // scratch is reserved at `max_degree`, so once every frame has been
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
                edges_seen += reader.try_neighbors(mmsb_graph::VertexId(v)).unwrap().len() as u64;
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

    // ---- out-of-core graph path: every read a miss ----
    // The pass above never evicts. `train_ooc` misses ~480 frames a step,
    // so the miss path is pinned too: a 1-block cache at 4 KiB blocks is
    // four 1 KiB frames, one 4-way set, and reading lists from more than
    // four distinct frames round-robin makes every read evict, `pread` a
    // frame, CRC it and decode it.
    let big = generate_planted(
        &PlantedConfig {
            num_vertices: 3000,
            num_communities: 30,
            mean_community_size: 110.0,
            memberships_per_vertex: 1.1,
            internal_degree: 10.0,
            background_degree: 0.5,
        },
        &mut rng,
    )
    .graph;
    let path = dir.join("misses.ooc");
    mmsb_ooc::write_graph(
        &big,
        &path,
        mmsb_ooc::BuildOptions {
            block_size: 4096,
            ..mmsb_ooc::BuildOptions::default()
        },
    )
    .unwrap();
    let ooc = mmsb_ooc::OocGraph::open(&path).unwrap();
    // One vertex per frame, each with its whole list inside that frame,
    // so a read touches exactly one frame.
    let frame_size = u64::from(mmsb_ooc::format::FRAME_SIZE);
    let mut picks: Vec<mmsb_graph::VertexId> = Vec::new();
    let mut last_frame = None;
    for v in 0..ooc.num_vertices() {
        let (start, end) = ooc.list_range(v);
        let frame = start / frame_size;
        if end > start && (end - 1) / frame_size == frame && last_frame != Some(frame) {
            last_frame = Some(frame);
            picks.push(mmsb_graph::VertexId(v));
        }
    }
    assert!(
        picks.len() > 4,
        "need more distinct frames than ways, got {}",
        picks.len()
    );
    let mut cache = mmsb_ooc::BlockCache::for_graph(&ooc, 1, 5);
    assert_eq!(cache.capacity_blocks(), 1);
    let obs = mmsb_obs::get().unwrap();
    let misses_before;
    {
        let mut reader = mmsb_ooc::OocReader::new(&ooc, &mut cache);
        for &v in &picks {
            edges_seen += reader.try_neighbors(v).unwrap().len() as u64;
        }
        misses_before = obs
            .metrics
            .counter_total(mmsb_obs::id::C_GRAPH_CACHE_MISSES);

        COUNTING.store(true, Ordering::SeqCst);
        for _ in 0..10 {
            for &v in &picks {
                edges_seen += reader.try_neighbors(v).unwrap().len() as u64;
            }
        }
        COUNTING.store(false, Ordering::SeqCst);
    }
    assert!(edges_seen > 0);
    assert_eq!(
        obs.metrics
            .counter_total(mmsb_obs::id::C_GRAPH_CACHE_MISSES)
            - misses_before,
        10 * picks.len() as u64,
        "every read of the miss pass must miss"
    );

    let n = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        n,
        0,
        "evicting out-of-core read loop hit the allocator {n} times over {} misses",
        10 * picks.len()
    );

    // ---- out-of-core sampler: the draw, the staging, the phi stage ----
    // Two pool threads over `misses.ooc`: a 4-block share per thread
    // gives three regions of 16 frame slots each, fewer slots than the
    // file has frames, so the steps keep evicting. The staged adjacency
    // was reserved at construction for the largest batch's lists, so
    // once warm a step allocates nothing.
    let (_, big_heldout) = HeldOut::split(&big, 100, &mut rng);
    let mut sampler = ParallelSampler::with_backend_threads(
        mmsb_ooc::GraphBackend::OutOfCore(mmsb_ooc::OocGraph::open(&path).unwrap()),
        big_heldout,
        SamplerConfig::new(8)
            .with_seed(7)
            .with_graph_cache_blocks(4),
        2,
    )
    .unwrap();
    sampler.run(60);
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    sampler.run(40);
    COUNTING.store(false, Ordering::SeqCst);
    let n = ALLOCS.swap(0, Ordering::SeqCst);
    assert_eq!(
        n, 0,
        "warmed out-of-core step() at 2 threads hit the allocator {n} times over 40 iterations"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
