//! Pins the serving layer's zero-allocation steady-state contract:
//! once a connection's scratch (read/body/response buffers and the
//! snapshot reader cache) has warmed up, handling a query must never
//! touch the heap — on the server side (parse, route, Eq. 7, JSON
//! render, obs recording) and on this test's hand-rolled client side
//! alike. The counting allocator is process-global, so an allocation
//! on the worker thread is caught exactly like one on the test thread.
//!
//! This file holds a single test on purpose: the counting allocator is
//! process-global, and a concurrently running test would pollute the
//! count.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use mmsb_core::{ParallelSampler, SamplerConfig};
use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};
use mmsb_graph::heldout::HeldOut;
use mmsb_obs::{ObsConfig, ObsLevel};
use mmsb_rand::Xoshiro256PlusPlus;
use mmsb_serve::{http, ServeConfig, ServeHandle};

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

/// One serial round trip with caller-owned scratch: writes the
/// prebuilt request, reads into `resp` until one full response is
/// parseable. Nothing here allocates.
fn roundtrip(stream: &mut TcpStream, request: &[u8], resp: &mut [u8]) -> u16 {
    stream.write_all(request).unwrap();
    let mut filled = 0usize;
    loop {
        if let Some((status, _total)) = http::parse_response(&resp[..filled]) {
            return status;
        }
        let n = stream.read(&mut resp[filled..]).unwrap();
        assert!(n > 0, "server closed mid-response");
        filled += n;
    }
}

#[test]
fn steady_state_queries_are_allocation_free() {
    // Metrics stay on for the whole test: counters, gauges, and latency
    // histograms land in slots pre-allocated here, so the gate below
    // also proves the per-request instrumentation is heap-free.
    mmsb_obs::init(ObsConfig::at(ObsLevel::Metrics));

    let k = 4usize;
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
    let gen = generate_planted(
        &PlantedConfig {
            num_vertices: 40,
            num_communities: k,
            mean_community_size: 12.0,
            memberships_per_vertex: 1.2,
            internal_degree: 7.0,
            background_degree: 0.5,
        },
        &mut rng,
    );
    let (graph, heldout) = HeldOut::split(&gen.graph, 20, &mut rng);
    let mut sampler =
        ParallelSampler::with_threads(graph, heldout, SamplerConfig::new(k).with_seed(5), 1)
            .unwrap();
    sampler.run(8);
    let model_path =
        std::env::temp_dir().join(format!("mmsb-serve-zeroalloc-{}.ckpt", std::process::id()));
    sampler.checkpoint().save(&model_path).unwrap();

    let handle = ServeHandle::start(&model_path, &ServeConfig::default()).unwrap();

    // Client scratch, sized before the gate goes up: prebuilt request
    // bytes covering every query endpoint, and a response buffer.
    let requests: [Vec<u8>; 4] = [
        b"GET /v1/membership/7?k=3 HTTP/1.1\r\n\r\n".to_vec(),
        b"GET /v1/edge/0/17 HTTP/1.1\r\n\r\n".to_vec(),
        b"GET /v1/community/1?min_weight=0.05 HTTP/1.1\r\n\r\n".to_vec(),
        b"GET /healthz HTTP/1.1\r\n\r\n".to_vec(),
    ];
    let mut resp = vec![0u8; 64 * 1024];
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();

    // Warm up: grows the connection's response buffer to its steady
    // size and lets the worker thread claim its obs shard.
    for i in 0..400 {
        let status = roundtrip(&mut stream, &requests[i % requests.len()], &mut resp);
        assert_eq!(status, 200);
    }

    COUNTING.store(true, Ordering::SeqCst);
    for i in 0..2_000 {
        let status = roundtrip(&mut stream, &requests[i % requests.len()], &mut resp);
        assert_eq!(status, 200);
    }
    COUNTING.store(false, Ordering::SeqCst);

    let n = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        n, 0,
        "steady-state query handling hit the allocator {n} times over 2000 requests"
    );

    drop(stream);
    handle.shutdown();
    std::fs::remove_file(&model_path).ok();
}
