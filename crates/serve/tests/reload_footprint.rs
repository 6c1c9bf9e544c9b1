//! Pins what a reload costs in memory: `POST /v1/reload` may raise the
//! live heap, over what it held just before, by at most 1.25 × (one
//! snapshot + one checkpoint file). The old snapshot keeps serving
//! until the new one is published, so one new snapshot plus the file it
//! is decoded from is the least a reload can hold; a build that keeps
//! a second copy of the model beside it does not fit.
//!
//! This file holds a single test on purpose: the high-water mark is
//! process-global, and a concurrently running test would move it.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};

use mmsb_core::{ParallelSampler, SamplerConfig};
use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};
use mmsb_graph::heldout::HeldOut;
use mmsb_rand::Xoshiro256PlusPlus;
use mmsb_serve::{http, loadgen, ServeConfig, ServeHandle};

/// Wraps [`System`], tracking the bytes currently allocated and their
/// high-water mark.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments verbatim to `System`, so
// the `GlobalAlloc` contract holds exactly as `System` upholds it; the
// added accounting is relaxed atomic arithmetic with no effect on the
// returned memory.
unsafe impl GlobalAlloc for PeakAlloc {
    // SAFETY: (applies to all four methods) the caller's obligations are passed
    // through unchanged to `System`, which imposes identical ones.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; see the impl-level comment.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    // SAFETY: forwards verbatim; see the impl-level comment.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; see the impl-level comment.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    // SAFETY: forwards verbatim; see the impl-level comment.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; see the impl-level comment.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        moved
    }

    // SAFETY: forwards verbatim; see the impl-level comment.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: forwarded verbatim; see the impl-level comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

#[test]
fn a_reload_holds_at_most_one_more_snapshot_and_the_file() {
    // Big enough (n * k >= 2^16) that the build fans out; K = 64 as
    // served models have, which keeps the per-range sort scratch (16n
    // bytes) small beside the snapshot.
    let (n, k) = (1_100u32, 64usize);
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(31);
    let gen = generate_planted(
        &PlantedConfig {
            num_vertices: n,
            num_communities: k,
            mean_community_size: n as f64 * 3.0 / 10.0,
            memberships_per_vertex: 1.2,
            internal_degree: 7.0,
            background_degree: 0.5,
        },
        &mut rng,
    );
    let (graph, heldout) = HeldOut::split(&gen.graph, 20, &mut rng);
    let mut sampler =
        ParallelSampler::with_threads(graph, heldout, SamplerConfig::new(k).with_seed(31), 1)
            .unwrap();
    sampler.run(1);
    let model_path =
        std::env::temp_dir().join(format!("mmsb-serve-footprint-{}.ckpt", std::process::id()));
    sampler.checkpoint().save(&model_path).unwrap();
    drop(sampler);
    let file_bytes = std::fs::metadata(&model_path).unwrap().len() as usize;

    let handle = ServeHandle::start(&model_path, &ServeConfig::default()).unwrap();
    let reload = loadgen::post_request("/v1/reload");
    let mut response = vec![0u8; 64 * 1024];
    let mut stream = TcpStream::connect(handle.addr()).unwrap();

    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    stream.write_all(&reload).unwrap();
    let mut filled = 0;
    let status = loop {
        if let Some((status, _total)) = http::parse_response(&response[..filled]) {
            break status;
        }
        let got = stream.read(&mut response[filled..]).unwrap();
        assert!(got > 0, "server closed mid-response");
        filled += got;
    };
    let rise = PEAK.load(Ordering::SeqCst) - before;
    assert_eq!(status, 200);
    assert_eq!(handle.generation(), 1);

    // `pi` (f32), `topk` and `members` (u32) per entry, `beta` (f64).
    let (n, k) = (n as usize, k);
    let snapshot_bytes = 12 * n * k + 8 * k;
    let bound = (snapshot_bytes + file_bytes) * 5 / 4;
    assert!(
        rise <= bound,
        "a reload raised the live heap by {rise} bytes, over the bound of {bound} \
         (snapshot {snapshot_bytes} + file {file_bytes}, x 1.25)"
    );

    drop(stream);
    handle.shutdown();
    std::fs::remove_file(&model_path).ok();
}
