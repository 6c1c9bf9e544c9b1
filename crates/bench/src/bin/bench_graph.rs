//! Out-of-core graph engine benchmark (DESIGN.md §15 acceptance).
//!
//! Builds a community-contiguous synthetic graph through the bounded-
//! memory streaming builder (100M edges at full scale — deliberately
//! larger than any resident CSR this container should hold), trains on
//! it, and appends one JSON line per measurement to `BENCH_graph.json`:
//!
//! * `build/*` — streaming build rate, output bytes per edge (**gated**:
//!   ≤ 4.8, i.e. 60% of the raw 8-byte `(u32, u32)` pair baseline), and
//!   the process peak RSS at the end of the build — the bounded-memory
//!   claim made measurable,
//! * `train/sequential`, `train/parallel` — end-to-end SG-MCMC
//!   iterations on the out-of-core backend through the driver that
//!   ships (`ParallelSampler`), at one thread (the id every earlier
//!   line carries) and at `host_cores`, each with the frame-cache
//!   misses per step from the obs counters and one held-out perplexity
//!   evaluation.
//!
//! Block-read and cache-hit costs are not measured here: they are
//! `ooc.block_read_us` and `ooc.neighbors_hit_ns` of
//! `bash benchmark/run.sh --workload train_ooc --trace 1`.
//!
//! `--quick` shrinks the graph ~50x for CI smoke runs (tier1 runs it);
//! the committed `BENCH_graph.json` carries the full-scale figures.

use mmsb::graph::generate::stream::{for_each_edge, StreamConfig};
use mmsb::prelude::*;
use mmsb_bench::timing::{append_json, host_cores};
use mmsb_ooc::{BuildOptions, OocReader, StreamingBuilder};
use std::path::Path;
use std::time::Instant;

struct Scale {
    mode: &'static str,
    stream: StreamConfig,
    /// Model communities for the training phase (small on purpose:
    /// the bench measures the graph engine, not mixing-time).
    model_k: usize,
    minibatch: Strategy,
    train_iters: u64,
    heldout_links: usize,
}

fn scale(quick: bool) -> Scale {
    if quick {
        Scale {
            mode: "quick",
            stream: StreamConfig {
                num_vertices: 100_000,
                num_communities: 100,
                target_edges: 2_000_000,
                intra_fraction: 0.9,
                seed: 0xA11CE,
            },
            model_k: 16,
            minibatch: Strategy::StratifiedNode {
                partitions: 256,
                anchors: 32,
            },
            train_iters: 10,
            heldout_links: 2_000,
        }
    } else {
        Scale {
            mode: "full",
            stream: StreamConfig {
                num_vertices: 4_000_000,
                num_communities: 4_000,
                // ~2% of emissions collide and dedup away; overshoot so
                // the realized distinct-edge count clears 100M.
                target_edges: 103_000_000,
                intra_fraction: 0.9,
                seed: 0xA11CE,
            },
            model_k: 16,
            // N/partitions keeps the non-link strata near the link strata
            // in size at this scale (DESIGN.md §2).
            minibatch: Strategy::StratifiedNode {
                partitions: 4_096,
                anchors: 32,
            },
            train_iters: 20,
            heldout_links: 10_000,
        }
    }
}

/// Peak resident set size of this process so far (Linux `VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let s = scale(quick);
    mmsb::obs::init(ObsConfig::at(ObsLevel::Metrics));
    let out = Path::new("BENCH_graph.json");

    let dir = std::env::temp_dir().join(format!("mmsb-bench-graph-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench temp dir");
    let graph_path = dir.join("graph.ooc");

    // ---- build: stream generator -> external sort -> on-disk CSR ----
    eprintln!(
        "[{}] building {} target edges over {} vertices ...",
        s.mode, s.stream.target_edges, s.stream.num_vertices
    );
    let t0 = Instant::now();
    let mut builder = StreamingBuilder::new(BuildOptions {
        num_vertices: Some(s.stream.num_vertices),
        ..BuildOptions::default()
    })
    .expect("create builder");
    for_each_edge(&s.stream, |a, b| {
        builder.add_edge(a, b).expect("add edge");
    });
    let stats = builder.finish(&graph_path).expect("finish build");
    let build_s = t0.elapsed().as_secs_f64();
    let bpe = stats.bytes_per_edge();
    let rss = peak_rss_mb().unwrap_or(-1.0);
    println!(
        "build: {} edges ({} dup dropped) in {}  ->  {:.3} bytes/edge, peak RSS {rss:.0} MiB",
        stats.num_edges,
        stats.duplicates_dropped,
        mmsb_bench::fmt_secs(build_s),
        bpe
    );
    append_json(
        out,
        "bench_graph",
        &format!(
            "\"id\":\"build/{}\",\"vertices\":{},\"edges\":{},\"file_bytes\":{},\"bytes_per_edge\":{:.4},\"build_s\":{:.3},\"edges_per_s\":{:.0},\"rss_peak_mb\":{:.1}",
            s.mode,
            stats.num_vertices,
            stats.num_edges,
            stats.file_bytes,
            bpe,
            build_s,
            stats.num_edges as f64 / build_s,
            rss
        ),
        1,
    );
    assert!(
        bpe <= 4.8,
        "bytes/edge gate failed: {bpe:.3} > 4.8 (60% of the raw 8-byte pair baseline)"
    );
    println!("bytes/edge gate: {bpe:.3} <= 4.8  PASS");

    // ---- end-to-end training on the out-of-core backend ------------
    let graph = OocGraph::open(&graph_path).expect("open graph");
    let heldout = {
        let mut ho_cache = BlockCache::for_graph(&graph, 256, 2);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xBEEF);
        HeldOut::sample_observed(
            OocReader::new(&graph, &mut ho_cache),
            s.heldout_links,
            &mut rng,
        )
    };
    drop(graph); // each sampler opens its own handle; keep one set of resident metadata
    let config = SamplerConfig::new(s.model_k)
        .with_seed(7)
        .with_minibatch(s.minibatch)
        .with_graph_cache_blocks(256);
    let metrics = &mmsb::obs::get().expect("obs initialized above").metrics;
    let misses = || metrics.counter_total(mmsb::obs::id::C_GRAPH_CACHE_MISSES);
    for (id, threads) in [("train/sequential", 1), ("train/parallel", host_cores())] {
        let graph = OocGraph::open(&graph_path).expect("reopen graph");
        let mut sampler = ParallelSampler::with_backend_threads(
            GraphBackend::OutOfCore(graph),
            heldout.clone(),
            config.clone(),
            threads,
        )
        .expect("construct sampler");
        sampler.run(2); // warm the caches and the workspaces
        let misses_before = misses();
        let t0 = Instant::now();
        sampler.run(s.train_iters);
        let train_s = t0.elapsed().as_secs_f64();
        let misses_per_step = (misses() - misses_before) as f64 / s.train_iters as f64;
        let ips = s.train_iters as f64 / train_s;
        let perplexity = sampler.evaluate_perplexity();
        assert!(
            perplexity.is_finite() && perplexity > 0.0,
            "implausible perplexity {perplexity}"
        );
        println!(
            "{id}: {ips:.2} iters/s on {threads} thread(s) ({} iters in {}), {misses_per_step:.0} frame misses/step, heldout perplexity {perplexity:.3}",
            s.train_iters,
            mmsb_bench::fmt_secs(train_s)
        );
        append_json(
            out,
            "bench_graph",
            &format!(
                "\"id\":\"{id}\",\"iters_per_s\":{ips:.3},\"iters\":{},\"misses_per_step\":{misses_per_step:.1},\"perplexity\":{perplexity:.4},\"rss_peak_mb\":{:.1}",
                s.train_iters,
                peak_rss_mb().unwrap_or(-1.0)
            ),
            threads,
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
    eprintln!("results appended to {}", out.display());
}
