//! The observability overhead gate: with the obs registry and span
//! rings pre-sized, a fully instrumented sampler `step()` (mini-batch
//! draw, all per-vertex phi updates, theta update) must stay within a
//! bound of the obs-off step. One `obs_overhead/threads=1` line per run
//! is appended to `BENCH_phi.json`.
//!
//! Step throughput, thread scaling and the kernel's own cost are not
//! measured here: they are `throughput_per_s`, `pool.scaling_eff`,
//! `core.t1_iters_per_s` and `simd.phi_gradient_ns` of
//! `bash benchmark/run.sh --workload train_resident --trace 1`.

use mmsb::prelude::*;
use mmsb_bench::timing::{append_json, fmt_ns};
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

/// One obs level's per-step cost over the measured rounds, ns/step: the
/// median and the quartiles around it (nearest rank).
#[derive(Clone, Copy)]
struct Spread {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Spread {
    fn of(mut v: Vec<f64>) -> Self {
        v.sort_by(|a, b| a.total_cmp(b));
        let n = v.len();
        Spread {
            q1: v[n / 4],
            median: v[n / 2],
            q3: v[3 * n / 4],
        }
    }
}

/// Measured per-step cost of one sampler at each obs level. Every round
/// runs each level once, and the level that starts a round rotates round
/// by round (a Latin square over the three positions; the round counts
/// are multiples of three), so each level runs first, second and third
/// equally often on the one continuing chain. A first round warms the
/// sampler up and is discarded.
fn measure_obs_levels(g: &Graph, h: &HeldOut, quick: bool) -> [Spread; 3] {
    let cfg = SamplerConfig::new(32).with_seed(7);
    let mut s = ParallelSampler::with_threads(g.clone(), h.clone(), cfg, 1).unwrap();
    let (rounds, steps) = if quick { (3, 5u64) } else { (9, 20u64) };
    let levels = [ObsLevel::Off, ObsLevel::Metrics, ObsLevel::Spans];
    let mut samples: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    // Round 0 is the warm-up.
    for round in 0..=rounds {
        for slot in 0..levels.len() {
            let i = (round + slot) % levels.len();
            mmsb::obs::set_level(levels[i]);
            let t0 = Instant::now();
            s.run(steps);
            if round > 0 {
                samples[i].push(t0.elapsed().as_secs_f64() * 1e9 / steps as f64);
            }
        }
    }
    mmsb::obs::set_level(ObsLevel::Off);
    samples.map(Spread::of)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let out = Path::new("BENCH_phi.json");
    // Size the obs storage up front for spans, then record nothing; the
    // measurement flips levels in place.
    mmsb::obs::init(ObsConfig::at(ObsLevel::Spans));
    mmsb::obs::set_level(ObsLevel::Off);
    let (g, h) = build(quick);

    let [off, metrics, spans] = measure_obs_levels(&g, &h, quick);
    let (off_ns, metrics_ns, spans_ns) = (off.median, metrics.median, spans.median);
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
    let spread = |name: &str, l: Spread| {
        println!(
            "  {name:<7} quartiles {} .. {} (spread {:.2}% of the median)",
            fmt_ns(l.q1),
            fmt_ns(l.q3),
            (l.q3 - l.q1) / l.median * 100.0
        );
        format!(",\"{name}_q1_ns\":{:.1},\"{name}_q3_ns\":{:.1}", l.q1, l.q3)
    };
    let spreads = spread("off", off) + &spread("metrics", metrics) + &spread("spans", spans);
    append_json(
        out,
        "bench_phi",
        &format!(
            "\"id\":\"obs_overhead/threads=1\",\"off_ns\":{off_ns:.1},\"metrics_ns\":{metrics_ns:.1},\"spans_ns\":{spans_ns:.1},\"overhead_metrics\":{overhead_metrics:.4},\"overhead_spans\":{overhead_spans:.4}{spreads}"
        ),
        1,
    );
    // The full-run bound is the 5% acceptance figure; `--quick` (CI
    // smoke on a possibly loaded host, 5-step batches) uses a generous
    // noise bound so scheduler jitter cannot fail the build while a real
    // regression (a lock or allocation on the hot path, orders of
    // magnitude) still would.
    let bound = if quick { 0.50 } else { 0.05 };
    let worst = overhead_metrics.max(overhead_spans);
    assert!(
        worst <= bound,
        "obs overhead gate failed: worst level costs {:.2}% over off (bound {:.0}%)",
        worst * 100.0,
        bound * 100.0
    );
    eprintln!("appended 1 line to {}", out.display());
}
