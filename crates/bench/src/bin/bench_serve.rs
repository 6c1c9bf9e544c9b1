//! Serving-layer gates, run against a live server over real localhost
//! sockets (train a small model, checkpoint it, start a `ServeHandle`
//! on an ephemeral port, drive it with `mmsb_serve::loadgen`):
//!
//! * **membership throughput floor** — sustained queries/sec over one
//!   keep-alive connection with 64 requests pipelined per batch (median
//!   of several rounds) against one worker: the full run asserts
//!   >= 100k queries/sec, `--quick` a bound an order of magnitude lower.
//! * **`serve_shed/overload=4x`** — 8 serial clients against a
//!   2-worker server, which serves 2 connections at a time (4× capacity). The server must shed the
//!   excess with fast-path 503s, never corrupt a response, and keep
//!   the p99 of the *accepted* requests bounded — load shedding is
//!   only worth it if the admitted traffic stays fast. One JSON line
//!   per run is appended to `BENCH_serve.json`.
//!
//! Throughput and latency figures are not recorded here: they are
//! `serve.membership_qps`, `serve.edge_qps`, `serve.serial_p50_us` and
//! `serve.serial_p99_us` of `bash benchmark/run.sh --workload
//! serve_query --trace 1`. Graceful drain is pinned by
//! `crates/serve/tests/drain_shed.rs`.
//!
//! `--quick` shrinks the request counts for CI smoke runs and relaxes
//! the bounds (a loaded host measures scheduler noise, not the server).

use mmsb::prelude::*;
use mmsb::serve::{loadgen, ServeConfig, ServeHandle, SocketAddr};
use mmsb_bench::timing::append_json;
use std::path::Path;

const K: usize = 16;
const N_VERTICES: u32 = 500;
/// Requests in flight per pipelined batch.
const DEPTH: usize = 64;

fn train_model(path: &Path, quick: bool) {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x5E17);
    let gen = generate_planted(
        &PlantedConfig {
            num_vertices: N_VERTICES,
            num_communities: K,
            mean_community_size: 40.0,
            memberships_per_vertex: 1.2,
            internal_degree: 10.0,
            background_degree: 0.8,
        },
        &mut rng,
    );
    let (graph, heldout) = HeldOut::split(&gen.graph, 200, &mut rng);
    let mut s =
        ParallelSampler::with_threads(graph, heldout, SamplerConfig::new(K).with_seed(7), 1)
            .expect("sampler");
    s.run(if quick { 5 } else { 30 });
    s.checkpoint().save(path).expect("save checkpoint");
}

/// Cycle queries over many vertices so the bench measures the snapshot
/// layout, not one hot cache line.
fn membership_requests() -> Vec<Vec<u8>> {
    (0..32u32)
        .map(|i| loadgen::get_request(&format!("/v1/membership/{}?k=5", (i * 131) % N_VERTICES)))
        .collect()
}

/// Median queries/sec over `rounds` throughput runs.
fn measure_qps(addr: SocketAddr, requests: &[Vec<u8>], total: usize, rounds: usize) -> f64 {
    let mut qps: Vec<f64> = (0..rounds)
        .map(|_| {
            let r = loadgen::throughput(addr, requests, total, DEPTH).expect("throughput run");
            assert_eq!(r.errors, 0, "non-200 responses under load");
            assert_eq!(r.requests, total as u64);
            r.qps
        })
        .collect();
    qps.sort_by(|a, b| a.total_cmp(b));
    qps[qps.len() / 2]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let out = Path::new("BENCH_serve.json");
    // Metrics stay on for the whole run: the gated throughput includes
    // the per-request instrumentation.
    mmsb::obs::init(ObsConfig::at(ObsLevel::Metrics));

    let model = std::env::temp_dir().join(format!("mmsb-bench-serve-{}.ckpt", std::process::id()));
    train_model(&model, quick);
    let handle = ServeHandle::start(&model, &ServeConfig::default()).expect("start server");
    let addr = handle.addr();
    println!("serving n={N_VERTICES} k={K} on {addr} (1 worker); pipelining depth {DEPTH}");

    let membership = membership_requests();
    let (total, rounds) = if quick {
        (20_000usize, 3usize)
    } else {
        (200_000, 5)
    };

    // Warm up the connection scratch and the branch predictors once;
    // each measured round then opens its own fresh connection.
    loadgen::throughput(addr, &membership, total / 4, DEPTH).expect("warmup");

    // The acceptance gate: 100k queries/sec on one core for membership
    // lookups. `--quick` (CI smoke on a possibly loaded host, small
    // batches) keeps a generous bound so scheduler jitter cannot fail
    // the build while an order-of-magnitude regression still would.
    let qps = measure_qps(addr, &membership, total, rounds);
    let bound = if quick { 10_000.0 } else { 100_000.0 };
    println!("membership throughput gate        {qps:>12.0} q/s median (floor {bound:.0})");
    assert!(
        qps >= bound,
        "membership throughput gate failed: {qps:.0} q/s < {bound:.0} q/s"
    );

    // --- Overload: 4× the served connections. -------------------------
    // A dedicated server with 2 workers, so 2 connections are served at
    // a time, and 8 clients. The extra 6 connections must be shed with
    // the canned 503 while the 2 admitted stay fast.
    handle.shutdown();
    let overload_cfg = ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    };
    let handle = ServeHandle::start(&model, &overload_cfg).expect("start overload server");
    let addr = handle.addr();
    let (clients, exchanges) = if quick { (8, 250) } else { (8, 2_500) };
    let shed = loadgen::overload(addr, clients, exchanges, "/v1/membership/5?k=5");
    println!(
        "serve_shed/overload=4x            {} completed, {} shed, {} io_errors (accepted p50 {} ns, p99 {} ns)",
        shed.completed, shed.shed, shed.io_errors, shed.p50_ns, shed.p99_ns
    );
    assert_eq!(shed.malformed, 0, "overload may shed but never corrupt");
    assert!(shed.shed > 0, "4x overload must shed: {shed:?}");
    assert!(
        shed.completed > 0,
        "admitted clients must be served: {shed:?}"
    );
    // The point of shedding: accepted requests stay fast even at 4×.
    // Generous bound — the gate is "bounded", not "fast on any host".
    let p99_bound_ns = if quick { 2_000_000_000u64 } else { 250_000_000 };
    assert!(
        shed.p99_ns < p99_bound_ns,
        "accepted p99 {} ns breaches {} ns under overload",
        shed.p99_ns,
        p99_bound_ns
    );
    let stats = handle.overload_stats();
    append_json(
        out,
        "bench_serve",
        &format!(
            "\"id\":\"serve_shed/overload=4x\",\"completed\":{},\"shed\":{},\"io_errors\":{},\"malformed\":{},\"p50_ns\":{},\"p99_ns\":{},\"shed_conns\":{},\"clients\":{clients}",
            shed.completed,
            shed.shed,
            shed.io_errors,
            shed.malformed,
            shed.p50_ns,
            shed.p99_ns,
            stats.shed_conns
        ),
        2,
    );
    handle.shutdown();
    std::fs::remove_file(&model).ok();
    println!(
        "\nbench_serve: done (results appended to {})",
        out.display()
    );
}
