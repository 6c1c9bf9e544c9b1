//! Isolated per-layer probes of the traced run, on the workload's own data,
//! plus the handful of counts read by name from the program's own metrics.
//! Each probe times a loop of direct calls and divides; the program's
//! observability is off while they run.

use crate::adapter::{self, KernelInputs, Mix, OocGraph, Snapshot, TrainConfig};
use crate::json::{self, Access};
use crate::run::Run;
use crate::train::ProbeData;

/// `per_op` of one timed span around `reps` operations, in `scale` units per
/// second (1e9 for ns, 1e6 for us).
fn per_op(seconds: f64, reps: usize, scale: f64) -> f64 {
    seconds * scale / reps as f64
}

/// Counts the program keeps itself, read by name from its `metrics.json`. A
/// name the program no longer has reads as `None`: reported as absent (0),
/// not as an error.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProgramCounts {
    pub cache_hits: Option<f64>,
    pub cache_misses: Option<f64>,
    pub graph_read_ns: Option<f64>,
    pub dkv_read_keys: Option<f64>,
    pub dkv_write_keys: Option<f64>,
    pub dkv_read_batches: Option<f64>,
    pub comm_collectives: Option<f64>,
}

pub fn program_counts(threads: usize) -> ProgramCounts {
    let Some(doc) = adapter::obs_metrics_json(threads).and_then(|text| json::parse(&text).ok())
    else {
        return ProgramCounts::default();
    };
    let counter = |name: &str| doc.get("counters")?.get(name)?.as_f64();
    ProgramCounts {
        cache_hits: counter("graph_cache_hits"),
        cache_misses: counter("graph_cache_misses"),
        graph_read_ns: doc
            .get("histograms")
            .and_then(|h| h.get("graph_read_ns")?.get("sum_ns")?.as_f64()),
        dkv_read_keys: counter("dkv_read_keys"),
        dkv_write_keys: counter("dkv_write_keys"),
        dkv_read_batches: counter("dkv_read_batches"),
        comm_collectives: counter("comm_collectives"),
    }
}

/// The counts as per-step metrics; `steps` is how many steps ran with the
/// program's metrics on.
pub fn put_step_counts(run: &mut Run, c: &ProgramCounts, steps: u64) {
    let per_step = |x: Option<f64>| x.unwrap_or(0.0) / steps.max(1) as f64;
    let (hits, misses) = (c.cache_hits.unwrap_or(0.0), c.cache_misses.unwrap_or(0.0));
    if hits + misses > 0.0 {
        run.put("ooc.cache_hit_ratio", hits / (hits + misses));
    }
    run.put("ooc.misses_per_step", per_step(c.cache_misses));
    run.put("ooc.read_ms_per_step", per_step(c.graph_read_ns) / 1e6);
    run.put("dkv.read_keys_per_iter", per_step(c.dkv_read_keys));
    run.put("dkv.write_keys_per_iter", per_step(c.dkv_write_keys));
    run.put("dkv.read_batches_per_iter", per_step(c.dkv_read_batches));
    run.put("comm.collectives_per_iter", per_step(c.comm_collectives));
}

/// `simd.*` and `rand.*`: direct kernel calls on seeded rows of the
/// workload's `k` communities and 32 neighbour rows.
pub fn kernels(run: &mut Run, k: usize) {
    let mut inputs = KernelInputs::new(k, run.seed_for(20));
    let reps = if run.args.quick { 2_000 } else { 20_000 };
    inputs.phi_gradient_calls(reps / 10); // warm the caches and the predictor
    let ((), s) = run
        .tracer
        .time("simd.phi_gradient", || inputs.phi_gradient_calls(reps));
    run.put("simd.phi_gradient_ns", per_op(s, reps, 1e9));
    let ((), s) = run
        .tracer
        .time("simd.noise_step", || inputs.noise_step_calls(reps));
    run.put("simd.noise_ns", per_op(s, reps, 1e9));
    let (_, s) = run
        .tracer
        .time("simd.edge_dots", || inputs.edge_dots_calls(reps * 10));
    run.put("simd.edge_dots_ns", per_op(s, reps * 10, 1e9));
    let (_, s) = run
        .tracer
        .time("rand.normal", || inputs.normal_calls(reps * 10));
    run.put("rand.normal_ns", per_op(s, reps * 10, 1e9));
}

/// `pool.forkjoin_us`: an empty fork-join over 64 chunks.
pub fn pool(run: &mut Run, threads: usize) {
    let reps = if run.args.quick { 500 } else { 5_000 };
    let ((), s) = run
        .tracer
        .time("pool.forkjoin", || adapter::forkjoin_calls(threads, reps));
    run.put("pool.forkjoin_us", per_op(s, reps, 1e6));
}

/// `graph.minibatch_us` and `graph.neighbor_sample_ns` through the
/// workload's own reader.
pub fn graph(run: &mut Run, data: &ProbeData, config: &TrainConfig, vertices: u32) {
    let reps = if run.args.quick { 20 } else { 200 };
    let (_, s) = run.tracer.time("graph.minibatch", || {
        adapter::minibatch_calls(&data.source, &data.heldout, config, reps)
    });
    run.put("graph.minibatch_us", per_op(s, reps, 1e6));
    let mut mix = Mix::new(run.seed_for(21));
    let targets: Vec<u32> = (0..reps * 50)
        .map(|_| mix.below(vertices as u64) as u32)
        .collect();
    let (_, s) = run.tracer.time("graph.neighbor_sample", || {
        adapter::neighbor_sample_calls(vertices, &data.heldout, config, &targets)
    });
    run.put("graph.neighbor_sample_ns", per_op(s, targets.len(), 1e9));
}

/// `ooc.probe_*`, `ooc.neighbors_hit_ns` and `ooc.block_read_us`: an edge
/// probe and a list decode on resident blocks, an edge probe after the cache
/// was emptied, and a raw block read with its CRC check.
pub fn ooc(run: &mut Run, file: &OocGraph) -> Result<(), String> {
    let vertices = adapter::ooc_vertices(file) as u64;
    let blocks = adapter::ooc_blocks(file);
    let mut mix = Mix::new(run.seed_for(22));
    let mut random_pairs = |n: usize| -> Vec<(u32, u32)> {
        (0..n)
            .map(|_| {
                let a = mix.below(vertices) as u32;
                let b = (a as u64 + 1 + mix.below(vertices - 1)) % vertices;
                (a, b as u32)
            })
            .collect()
    };
    // Hits: 16 pairs touch at most 32 blocks, which a 512-block cache holds
    // without set conflicts; one pass faults them in, the timed passes hit.
    let hot = random_pairs(16);
    let mut cache = adapter::new_cache(file, 512, run.seed_for(23));
    adapter::has_edge_calls(file, &mut cache, &hot, false);
    let passes = if run.args.quick { 100 } else { 2_000 };
    let (_, s) = run.tracer.time("ooc.probe_hit", || {
        for _ in 0..passes {
            adapter::has_edge_calls(file, &mut cache, &hot, false);
        }
    });
    run.put("ooc.probe_hit_ns", per_op(s, passes * hot.len(), 1e9));
    let hot_vertices: Vec<u32> = hot.iter().map(|&(a, _)| a).collect();
    adapter::neighbors_calls(file, &mut cache, &hot_vertices);
    let (_, s) = run.tracer.time("ooc.neighbors_hit", || {
        for _ in 0..passes {
            adapter::neighbors_calls(file, &mut cache, &hot_vertices);
        }
    });
    run.put(
        "ooc.neighbors_hit_ns",
        per_op(s, passes * hot_vertices.len(), 1e9),
    );

    let cold = random_pairs(if run.args.quick { 100 } else { 1_000 });
    let mut small = adapter::new_cache(file, 64, run.seed_for(24));
    let (_, s) = run.tracer.time("ooc.probe_miss", || {
        adapter::has_edge_calls(file, &mut small, &cold, true)
    });
    run.put("ooc.probe_miss_us", per_op(s, cold.len(), 1e6));

    let reads: Vec<u32> = (0..cold.len())
        .map(|_| mix.below(blocks as u64) as u32)
        .collect();
    let (read, s) = run
        .tracer
        .time("ooc.block_read", || adapter::block_read_calls(file, &reads));
    read?;
    run.put("ooc.block_read_us", per_op(s, reads.len(), 1e6));
    Ok(())
}

/// `dkv.read_batch_us`: one 512-key batched read from a sharded store shaped
/// like the cluster simulation's.
pub fn dkv(run: &mut Run, vertices: u32, k: usize) -> Result<(), String> {
    let reps = if run.args.quick { 50 } else { 500 };
    let seed = run.seed_for(25);
    let (read, s) = run.tracer.time("dkv.read_batch", || {
        adapter::dkv_read_calls(vertices, k, seed, reps)
    });
    read?;
    run.put("dkv.read_batch_us", per_op(s, reps, 1e6));
    Ok(())
}

/// `serve.topk_ns`, `serve.edge_likelihood_ns` and `serve.parse_ns`: the
/// lookups and the parser without a socket, so that `throughput_per_s` can be
/// split into lookup and HTTP-plus-socket shares.
pub fn serve_lookups(run: &mut Run, snapshot: &Snapshot, requests: &[Vec<u8>]) {
    let n = snapshot.vertices() as u64;
    let mut mix = Mix::new(run.seed_for(26));
    let count = if run.args.quick { 20_000 } else { 200_000 };
    let vertices: Vec<u32> = (0..count).map(|_| mix.below(n) as u32).collect();
    let pairs: Vec<(u32, u32)> = (0..count)
        .map(|_| (mix.below(n) as u32, mix.below(n) as u32))
        .collect();
    let (_, s) = run
        .tracer
        .time("serve.topk", || snapshot.top_k_calls(&vertices));
    run.put("serve.topk_ns", per_op(s, count, 1e9));
    let (_, s) = run.tracer.time("serve.edge_likelihood", || {
        snapshot.edge_likelihood_calls(&pairs)
    });
    run.put("serve.edge_likelihood_ns", per_op(s, count, 1e9));
    let passes = (count / requests.len()).max(1);
    let (parsed, s) = run.tracer.time("serve.parse", || {
        (0..passes)
            .map(|_| adapter::parse_request_calls(requests))
            .sum::<usize>()
    });
    run.check(
        "every ring request parses completely",
        parsed == passes * requests.len(),
    );
    run.put("serve.parse_ns", per_op(s, passes * requests.len(), 1e9));
}
