//! Measured (not modeled) load/compute overlap of the DKV reader.
//!
//! Runs the *same* chunked read+compute workload through one
//! `ChunkReader` per mode — synchronously (`PipelineMode::Single`) and
//! with the real double-buffered prefetch (`PipelineMode::Double`),
//! timing both by the pass's measured `wall` — and appends one
//! `{single_ns, double_ns, overlap_ratio}` JSON line per configuration to
//! `BENCH_pipeline.json`. `overlap_ratio = single_ns / double_ns`: above
//! 1.0 means the background prefetch genuinely hid load time behind
//! compute (the paper's §III-D pipelining, here on real wall-clock).
//!
//! The workload is load-heavy on purpose, and — crucially — the store
//! runs with a *real* simulated remote-read latency
//! ([`ShardedStore::with_read_latency_per_key`]): each batched read
//! blocks for a per-request wire time, like an RDMA read waiting on the
//! NIC, instead of returning at memcpy speed. That is the regime the
//! paper's pipelining targets (network-latency-bound loads), and because
//! a blocked reader occupies no CPU, the prefetch thread overlaps
//! genuinely even on a single-core host.

use mmsb::dkv::pipeline::{ChunkReader, PipelineMode, ReaderScratch};
use mmsb::dkv::{DkvStore, Partition, ShardedStore};
use mmsb::prelude::*;
use mmsb_bench::timing::{append_json, fmt_ns};
use std::path::Path;

struct Config {
    row_len: usize,
    chunk: usize,
    keys: usize,
    /// Simulated per-request wire time (microseconds per key) the store
    /// blocks for on every read batch; 1–3us is a realistic RDMA
    /// per-request figure.
    latency_us_per_key: f64,
}

struct Row {
    id: String,
    single_ns: f64,
    double_ns: f64,
    overlap_ratio: f64,
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// The per-chunk compute: a polynomial pass over the delivered rows,
/// arithmetic-heavy like `update_phi` (which does tens of flops per
/// loaded float) rather than bandwidth-bound — the regime where a
/// concurrent prefetch has spare memory bandwidth to run in. Identical
/// in both modes.
fn compute_pass(rows: &[f32], acc: &mut f64) {
    let (mut s0, mut s1) = (0.0f64, 0.0f64);
    for pair in rows.chunks_exact(2) {
        let (x, y) = (pair[0] as f64, pair[1] as f64);
        s0 = s0.mul_add(0.999_999, x * x + 0.5 * x + 0.25);
        s1 = s1.mul_add(0.999_998, y * y + 0.5 * y + 0.125);
    }
    *acc += s0 + s1;
}

fn run_config(cfg: &Config, reps: usize) -> Row {
    let store = {
        let mut s = ShardedStore::new(Partition::new(cfg.keys as u32, 8), cfg.row_len);
        let keys: Vec<u32> = (0..cfg.keys as u32).collect();
        let vals = vec![0.5f32; keys.len() * cfg.row_len];
        s.write_batch(&keys, &vals).unwrap();
        s.with_read_latency_per_key(cfg.latency_us_per_key * 1e-6)
    };
    let net = NetworkModel::fdr_infiniband();
    let keys: Vec<u32> = (0..cfg.keys as u32).collect();
    let mut scratch = ReaderScratch::new();
    let mut single = ChunkReader::new(cfg.chunk, PipelineMode::Single);
    let mut double = ChunkReader::new(cfg.chunk, PipelineMode::Double);
    let mut acc = 0.0f64;
    // One pass through `reader`; its measured wall-clock in ns.
    let mut pass = |reader: &mut ChunkReader| {
        let run = reader
            .run(&store, 0, &keys, &net, &mut scratch, |_, _, rows| {
                compute_pass(rows, &mut acc)
            })
            .unwrap();
        run.wall * 1e9
    };

    // Warm both modes (buffer growth, thread start) before timing.
    for _ in 0..2 {
        pass(&mut single);
        pass(&mut double);
    }

    // Interleave the modes so drift (frequency scaling, cache state)
    // hits both equally.
    let mut single_samples = Vec::with_capacity(reps);
    let mut double_samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        single_samples.push(pass(&mut single));
        double_samples.push(pass(&mut double));
    }
    std::hint::black_box(acc);

    let single_ns = median(&mut single_samples);
    let double_ns = median(&mut double_samples);
    Row {
        id: format!(
            "pipeline/rows{}_chunk{}_keys{}",
            cfg.row_len, cfg.chunk, cfg.keys
        ),
        single_ns,
        double_ns,
        overlap_ratio: single_ns / double_ns,
    }
}

fn append_rows(path: &Path, rows: &[Row]) {
    for r in rows {
        // `threads` is structurally 2 here: the caller plus the one
        // background prefetch thread of the double-buffered reader.
        append_json(
            path,
            "bench_pipeline",
            &format!(
                "\"id\":\"{}\",\"single_ns\":{:.1},\"double_ns\":{:.1},\"overlap_ratio\":{:.4}",
                r.id, r.single_ns, r.double_ns, r.overlap_ratio
            ),
            2,
        );
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 5 } else { 21 };
    // Latencies chosen so per-chunk load (chunk * latency + copy) is the
    // same order as per-chunk compute — the balanced regime where double
    // buffering pays most (§III-D: makespan max(l, c) vs sum l + c).
    let configs = [
        Config {
            row_len: 257,
            chunk: 512,
            keys: 8192,
            latency_us_per_key: 1.0,
        },
        Config {
            row_len: 1025,
            chunk: 256,
            keys: 4096,
            latency_us_per_key: 3.0,
        },
    ];
    let mut rows = Vec::new();
    for cfg in &configs {
        let row = run_config(cfg, reps);
        println!(
            "{:<36} single {:>12}  double {:>12}  overlap {:.2}x",
            row.id,
            fmt_ns(row.single_ns),
            fmt_ns(row.double_ns),
            row.overlap_ratio
        );
        rows.push(row);
    }
    let out = Path::new("BENCH_pipeline.json");
    append_rows(out, &rows);
    eprintln!("appended {} lines to {}", rows.len(), out.display());
}
