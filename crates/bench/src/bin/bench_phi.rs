//! Phi-update throughput across a thread sweep (1, 2, 4, 8) and the
//! kernel backends, appended to `BENCH_phi.json` (one JSON line per
//! configuration per run) so repeated runs accumulate a pool-scaling
//! history.
//!
//! The measured unit is one full sampler `step()` (mini-batch draw, all
//! per-vertex phi updates, theta update); the dominant cost is the phi
//! stage, and the derived `phi_updates_per_sec` figure counts the
//! per-vertex updates actually performed. Every line uses the same
//! `iters_per_sample` (steps per timed batch) in both full and `--quick`
//! mode, and `samples > 1` timed batches feed a real median — so lines
//! sharing an `id` are directly comparable across runs and modes.
//!
//! Backends: `phi_step/...` lines force `Backend::Scalar` — since PR 20
//! the `mmsb-simd` kernels at one unfused lane; earlier lines under the
//! same ids measured the deleted scalar kernel stack, and the line that
//! records the break carries a `note`. `phi_step_simd/backend=<b>/...`
//! lines force the widest backend
//! runtime detection finds. The `phi_simd_speedup/threads=1` line
//! records the single-thread scalar-to-SIMD step speedup.

use mmsb::prelude::*;
use mmsb_bench::timing::{append_json, emit_obs_snapshot, fmt_ns, host_cores, Measurement, BENCH_SCHEMA};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

fn build(quick: bool) -> (Graph, HeldOut) {
    let scale = if quick { 4 } else { 1 };
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xF1);
    let gen = generate_planted(
        &PlantedConfig {
            num_vertices: 4000 / scale,
            num_communities: 32,
            mean_community_size: 160.0 / scale as f64,
            memberships_per_vertex: 1.3,
            internal_degree: 18.0,
            background_degree: 1.0,
        },
        &mut rng,
    );
    HeldOut::split(&gen.graph, 500 / scale as usize, &mut rng)
}

/// Steps per timed batch. Constant across full and `--quick` runs so
/// every emitted line under one id has the same `iters_per_sample` and
/// the history stays comparable (the committed file used to mix 10 and
/// 60 under one id, which made cross-run medians meaningless).
const STEPS_PER_SAMPLE: u64 = 10;

/// Measure steady-state step throughput at `threads` on `backend`,
/// returning the measurement plus the phi-updates/sec rate. Takes
/// several timed batches and reports their median, so one descheduled
/// batch cannot skew the recorded figure.
fn measure(
    g: &Graph,
    h: &HeldOut,
    threads: usize,
    backend: Backend,
    quick: bool,
) -> (Measurement, f64) {
    let cfg = SamplerConfig::new(32)
        .with_seed(7)
        .with_simd(SimdPolicy::Force(backend));
    let mut s = ParallelSampler::with_threads(g.clone(), h.clone(), cfg, threads).unwrap();
    let (warmup, samples) = if quick { (5, 3) } else { (20, 7) };
    s.run(warmup);
    let mut per_step: Vec<f64> = (0..samples)
        .map(|_| {
            let before = Instant::now();
            s.run(STEPS_PER_SAMPLE);
            before.elapsed().as_secs_f64() * 1e9 / STEPS_PER_SAMPLE as f64
        })
        .collect();
    per_step.sort_by(|a, b| a.total_cmp(b));
    let median_ns = per_step[per_step.len() / 2];
    let id = match backend {
        Backend::Scalar => format!("phi_step/threads={threads}"),
        b => format!("phi_step_simd/backend={b}/threads={threads}"),
    };
    let m = Measurement {
        id,
        median_ns,
        min_ns: per_step[0],
        samples,
        iters_per_sample: STEPS_PER_SAMPLE,
        threads,
    };
    // Stratified default: ~anchors strata per step; report per-vertex rate
    // relative to N as a stable cross-run figure.
    let n = g.num_vertices() as f64;
    let updates_per_sec = n * 1e9 / median_ns;
    (m, updates_per_sec)
}

/// Measured per-step cost of one warmed sampler at each obs level,
/// interleaved (off, metrics, spans, off, metrics, spans, ...) so drift
/// hits all three equally. Returns median ns/step per level.
fn measure_obs_levels(g: &Graph, h: &HeldOut, quick: bool) -> [f64; 3] {
    let cfg = SamplerConfig::new(32).with_seed(7);
    let mut s = ParallelSampler::with_threads(g.clone(), h.clone(), cfg, 1).unwrap();
    s.run(if quick { 5 } else { 20 });
    let (rounds, steps) = if quick { (3, 5u64) } else { (9, 20u64) };
    let levels = [ObsLevel::Off, ObsLevel::Metrics, ObsLevel::Spans];
    let mut samples: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..rounds {
        for (i, level) in levels.iter().enumerate() {
            mmsb::obs::set_level(*level);
            let t0 = Instant::now();
            s.run(steps);
            samples[i].push(t0.elapsed().as_secs_f64() * 1e9 / steps as f64);
        }
    }
    mmsb::obs::set_level(ObsLevel::Off);
    samples.map(|mut v| {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    })
}

/// The overhead gate the tentpole promises: with the obs registry and
/// span rings pre-sized, a fully instrumented phi step must stay within
/// `bound` of the obs-off step. The full-run bound is the 5% acceptance
/// figure; `--quick` (CI smoke on a possibly loaded host, 5-step
/// batches) uses a generous noise bound so scheduler jitter cannot fail
/// the build while a real regression (a lock or allocation on the hot
/// path, orders of magnitude) still would.
fn obs_overhead_gate(g: &Graph, h: &HeldOut, quick: bool, out: &Path) {
    let [off_ns, metrics_ns, spans_ns] = measure_obs_levels(g, h, quick);
    let overhead_metrics = metrics_ns / off_ns - 1.0;
    let overhead_spans = spans_ns / off_ns - 1.0;
    println!(
        "obs_overhead: off {} / metrics {} ({:+.2}%) / spans {} ({:+.2}%)",
        fmt_ns(off_ns),
        fmt_ns(metrics_ns),
        overhead_metrics * 100.0,
        fmt_ns(spans_ns),
        overhead_spans * 100.0
    );
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out)
        .expect("open BENCH_phi.json for append");
    writeln!(
        f,
        "{{\"schema\":{BENCH_SCHEMA},\"suite\":\"bench_phi\",\"id\":\"obs_overhead/threads=1\",\"off_ns\":{off_ns:.1},\"metrics_ns\":{metrics_ns:.1},\"spans_ns\":{spans_ns:.1},\"overhead_metrics\":{overhead_metrics:.4},\"overhead_spans\":{overhead_spans:.4},\"threads\":1,\"host_cores\":{}}}",
        host_cores()
    )
    .expect("append BENCH_phi.json");
    let bound = if quick { 0.50 } else { 0.05 };
    let worst = overhead_metrics.max(overhead_spans);
    assert!(
        worst <= bound,
        "obs overhead gate failed: worst level costs {:.2}% over off (bound {:.0}%)",
        worst * 100.0,
        bound * 100.0
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let out = Path::new("BENCH_phi.json");
    // Size the obs storage up front (level off): the sweep below measures
    // the un-instrumented baseline, the gate then flips levels in place.
    mmsb::obs::init(ObsConfig::at(ObsLevel::Off));
    let (g, h) = build(quick);
    let max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Sweep the pool sizes so scaling regressions show up in the history;
    // oversubscribing beyond the host's cores measures scheduler noise,
    // not the pool, so configurations above `max_threads` are skipped.
    // The scalar backend is measured alongside the detected SIMD backend
    // so the speedup is a same-run comparison (same host load, same
    // graph), not a cross-run diff.
    let simd = Backend::detect();
    let backends: &[Backend] = if simd == Backend::Scalar {
        &[Backend::Scalar]
    } else {
        &[Backend::Scalar, simd]
    };
    let mut results = Vec::new();
    let mut single_thread_ns = Vec::new(); // (backend, median_ns) at threads=1
    for &backend in backends {
        let mut rates = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            if threads > max_threads {
                eprintln!("skipping threads={threads}: host has {max_threads} cores");
                continue;
            }
            let (m, rate) = measure(&g, &h, threads, backend, quick);
            println!(
                "{:<44} {:>14} /step   ({:.0} vertex-rate/s)",
                m.id,
                fmt_ns(m.median_ns),
                rate
            );
            if threads == 1 {
                single_thread_ns.push((backend, m.median_ns));
            }
            results.push(m);
            rates.push((threads, rate));
        }
        for pair in rates.windows(2) {
            println!(
                "speedup {}t -> {}t: {:.2}x",
                pair[0].0,
                pair[1].0,
                pair[1].1 / pair[0].1
            );
        }
    }
    append_json(out, "bench_phi", &results);
    if let [(_, scalar_ns), (b, simd_ns)] = single_thread_ns[..] {
        let speedup = scalar_ns / simd_ns;
        println!("simd speedup ({b}, 1 thread): {speedup:.2}x over scalar");
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .expect("open BENCH_phi.json for append");
        writeln!(
            f,
            "{{\"schema\":{BENCH_SCHEMA},\"suite\":\"bench_phi\",\"id\":\"phi_simd_speedup/threads=1\",\"backend\":\"{b}\",\"scalar_ns\":{scalar_ns:.1},\"simd_ns\":{simd_ns:.1},\"speedup\":{speedup:.3},\"threads\":1,\"host_cores\":{}}}",
            host_cores()
        )
        .expect("append BENCH_phi.json");
    }
    obs_overhead_gate(&g, &h, quick, out);
    // Leave metrics armed for one last instrumented burst so the snapshot
    // the run points at is populated.
    mmsb::obs::set_level(ObsLevel::Metrics);
    let cfg = SamplerConfig::new(32).with_seed(7);
    let mut s = ParallelSampler::with_threads(g.clone(), h.clone(), cfg, 1).unwrap();
    s.run(if quick { 5 } else { 20 });
    emit_obs_snapshot(out, "bench_phi", 1);
    eprintln!("appended {} lines to {}", results.len() + 2, out.display());
}
