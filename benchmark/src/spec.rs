//! What the benchmark declares: workload names and every metric with its
//! unit. `BENCHMARK.json` at the repository root lists the same names; the
//! schema test (`tests/schema.rs`) fails when the two drift apart.

pub const WORKLOADS: [&str; 5] = [
    "train_resident",
    "train_ooc",
    "train_cluster_sim",
    "serve_query",
    "serve_reload",
];

/// End-to-end metrics, printed by an untraced run (`--trace 0`), each
/// defined on every workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("final_perplexity", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by the traced run (`--trace 1`). A layer that
/// does no work on a workload reports 0 there; a phase that ran but cannot
/// be trusted says so in a metric of its own (`serve.open_valid`).
pub const PER_LAYER: [(&str, &str); 72] = [
    ("graph.load_edge_list_s", "s"),
    ("graph.heldout_s", "s"),
    ("graph.minibatch_us", "us"),
    ("graph.neighbor_sample_ns", "ns"),
    ("ooc.convert_s", "s"),
    ("ooc.convert_edges_per_s", "1/s"),
    ("ooc.bytes_per_edge", "B"),
    ("ooc.open_verify_s", "s"),
    ("ooc.probe_hit_ns", "ns"),
    ("ooc.probe_miss_us", "us"),
    ("ooc.neighbors_hit_ns", "ns"),
    ("ooc.block_read_us", "us"),
    ("ooc.cache_hit_ratio", "ratio"),
    ("ooc.misses_per_step", "count"),
    ("ooc.read_ms_per_step", "ms"),
    ("simd.phi_gradient_ns", "ns"),
    ("simd.noise_ns", "ns"),
    ("simd.edge_dots_ns", "ns"),
    ("rand.normal_ns", "ns"),
    ("pool.forkjoin_us", "us"),
    ("pool.scaling_eff", "ratio"),
    ("core.construct_s", "s"),
    ("core.t1_iters_per_s", "1/s"),
    ("core.step_ms_p50", "ms"),
    ("core.step_ms_hi", "ms"),
    ("core.perplexity_eval_ms", "ms"),
    ("core.checkpoint_save_s", "s"),
    ("core.checkpoint_load_s", "s"),
    ("core.checkpoint_bytes", "B"),
    ("dkv.read_keys_per_iter", "count"),
    ("dkv.write_keys_per_iter", "count"),
    ("dkv.read_batches_per_iter", "count"),
    ("dkv.read_batch_us", "us"),
    ("comm.collectives_per_iter", "count"),
    ("netsim.virtual_ms_per_iter", "ms"),
    ("netsim.draw_minibatch_ms", "ms"),
    ("netsim.deploy_minibatch_ms", "ms"),
    ("netsim.sample_neighbors_ms", "ms"),
    ("netsim.load_pi_ms", "ms"),
    ("netsim.update_phi_ms", "ms"),
    ("netsim.update_pi_ms", "ms"),
    ("netsim.update_beta_theta_ms", "ms"),
    ("netsim.barrier_ms", "ms"),
    ("netsim.prefetch_ms", "ms"),
    ("serve.start_s", "s"),
    ("serve.snapshot_build_s", "s"),
    ("serve.topk_ns", "ns"),
    ("serve.edge_likelihood_ns", "ns"),
    ("serve.parse_ns", "ns"),
    ("serve.membership_qps", "1/s"),
    ("serve.edge_qps", "1/s"),
    ("serve.community_qps", "1/s"),
    ("serve.post_reload_qps", "1/s"),
    ("serve.reload_ms", "ms"),
    ("serve.serial_p50_us", "us"),
    ("serve.serial_p99_us", "us"),
    ("serve.open_p50_us", "us"),
    ("serve.open_p99_us", "us"),
    ("serve.open_late_p99_us", "us"),
    ("serve.open_valid", "count"),
    ("obs.trace_overhead", "ratio"),
    ("obs.top_level_coverage", "ratio"),
    ("bench.gen_s", "s"),
    ("bench.verify_s", "s"),
    ("bench.run_s", "s"),
    ("bench.timed_units", "count"),
    ("bench.unit_rate_q1", "1/s"),
    ("bench.unit_rate_q3", "1/s"),
    ("bench.setup_q1_s", "s"),
    ("bench.setup_q3_s", "s"),
    ("bench.threads", "count"),
    ("bench.connections", "count"),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}
