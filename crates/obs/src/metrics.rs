//! Counters, gauges, and fixed-bucket log2 histograms.
//!
//! All storage is flat `AtomicU64` slots sized once at construction;
//! recording is an index computation plus a relaxed `fetch_add`/`store`.
//! Counters and histograms are sharded per thread (each thread gets a
//! stable shard index the first time it records) so concurrent workers
//! never contend on a cache line; reads merge the shards.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The stages of one SG-MCMC iteration (paper §III-C/D), in pipeline
/// order. The workspace's one phase list: the samplers time each stage
/// under its phase span, `mmsb-netsim` accounts virtual time per phase
/// (and re-exports this enum), and the phase spans and histograms come
/// first in [`id`]'s tables, so a phase's span id and histogram id are
/// both `phase as usize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Master draws the mini-batch (and samples strata).
    DrawMinibatch,
    /// Master scatters mini-batch vertices + adjacency rows to workers.
    DeployMinibatch,
    /// Workers sample neighbor sets `V_n`.
    SampleNeighbors,
    /// Workers load `pi` rows from the DKV store (sub-stage of update_phi).
    LoadPi,
    /// Workers compute the `phi` updates (sub-stage of update_phi).
    UpdatePhi,
    /// Workers normalize and write back `pi` (+ sum of phi).
    UpdatePi,
    /// Gradient + reduce + broadcast for the global parameters.
    UpdateBetaTheta,
    /// Held-out perplexity evaluation.
    Perplexity,
    /// Barrier / synchronization waiting time.
    Barrier,
    /// `pi` load time the double-buffered schedule hid behind compute
    /// (`mmsb_netsim::dkv::price` under `PipelineMode::Double`):
    /// `LoadPi` + `UpdatePhi` minus the pass's modeled makespan. Recorded
    /// only when pipelined; not part of any rank's clock.
    Prefetch,
    /// Fault-recovery overhead: retry backoff, re-issued loads/stores,
    /// straggler re-execution, and re-partitioning after a worker loss.
    /// Zero on a healthy run.
    Recovery,
}

impl Phase {
    /// Every phase, in pipeline order (`ALL[p as usize] == p`).
    pub const ALL: [Phase; 11] = [
        Phase::DrawMinibatch,
        Phase::DeployMinibatch,
        Phase::SampleNeighbors,
        Phase::LoadPi,
        Phase::UpdatePhi,
        Phase::UpdatePi,
        Phase::UpdateBetaTheta,
        Phase::Perplexity,
        Phase::Barrier,
        Phase::Prefetch,
        Phase::Recovery,
    ];

    /// Human-readable stage name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            Phase::DrawMinibatch => "draw mini-batch",
            Phase::DeployMinibatch => "deploy mini-batch",
            Phase::SampleNeighbors => "sample neighbors",
            Phase::LoadPi => "load pi",
            Phase::UpdatePhi => "update phi",
            Phase::UpdatePi => "update pi",
            Phase::UpdateBetaTheta => "update beta/theta",
            Phase::Perplexity => "perplexity",
            Phase::Barrier => "barrier",
            Phase::Prefetch => "prefetch (hidden)",
            Phase::Recovery => "recovery",
        }
    }
}

/// Metric identifiers. Fixed at compile time: the registry is a flat
/// array, not a name-keyed map, so the hot path never hashes or
/// allocates. The first `Phase::ALL.len()` histograms and spans are the
/// phases', in [`Phase`] order.
pub mod id {
    use super::Phase;

    /// Phase histograms (and phase spans) before the first other one.
    const PHASES: usize = Phase::ALL.len();

    // --- counters ---------------------------------------------------
    /// dkv: batched read calls.
    pub const C_DKV_READ_BATCHES: usize = 0;
    /// dkv: keys read across all batches.
    pub const C_DKV_READ_KEYS: usize = 1;
    /// dkv: batched write calls.
    pub const C_DKV_WRITE_BATCHES: usize = 2;
    /// dkv: keys written across all batches.
    pub const C_DKV_WRITE_KEYS: usize = 3;
    /// dkv: read attempts retried after a fault.
    pub const C_DKV_READ_RETRIES: usize = 4;
    /// dkv: write attempts retried after a fault.
    pub const C_DKV_WRITE_RETRIES: usize = 5;
    /// comm: collectives of the simulated cluster (priced by netsim; no
    /// message is sent).
    pub const C_COMM_COLLECTIVES: usize = 6;
    /// pool: fork-join jobs run.
    pub const C_POOL_JOBS: usize = 7;
    /// pool: chunks claimed by workers.
    pub const C_POOL_CHUNKS: usize = 8;
    /// core: sampler steps completed.
    pub const C_SAMPLER_STEPS: usize = 9;
    /// core: checkpoints captured.
    pub const C_CHECKPOINTS: usize = 10;
    /// core: recoveries performed after a kill.
    pub const C_RECOVERIES: usize = 11;
    /// serve: HTTP requests handled (all endpoints).
    pub const C_SERVE_REQUESTS: usize = 12;
    /// serve: requests answered with a 4xx/5xx status.
    pub const C_SERVE_ERRORS: usize = 13;
    /// serve: model snapshots published via `POST /v1/reload`.
    pub const C_SERVE_RELOADS: usize = 14;
    /// serve: TCP connections accepted.
    pub const C_SERVE_CONNS: usize = 15;
    /// serve: queued connections refused with the fast-path 503 while
    /// every worker held a connection.
    pub const C_SERVE_SHED_CONNS: usize = 16;
    /// serve: connections closed by a deadline (slow-loris partial
    /// head, never-sent first request, or a response write timeout).
    pub const C_SERVE_DEADLINE_CLOSES: usize = 17;
    /// serve: connections that completed cleanly during a drain (all
    /// buffered requests answered, closed at a request boundary).
    pub const C_SERVE_DRAIN_COMPLETED: usize = 18;
    /// serve: connections force-closed after the drain deadline.
    pub const C_SERVE_DRAIN_ABORTED: usize = 19;
    /// serve: reload attempts that failed (corrupt/unreadable
    /// checkpoint); the old generation keeps serving.
    pub const C_SERVE_RELOAD_ERRORS: usize = 20;
    /// ooc: graph frame-cache lookups served from a cached frame.
    pub const C_GRAPH_CACHE_HITS: usize = 21;
    /// ooc: graph frame-cache lookups that had to read from disk.
    pub const C_GRAPH_CACHE_MISSES: usize = 22;
    /// ooc: frame-cache loads that displaced a cached frame.
    pub const C_GRAPH_CACHE_EVICTIONS: usize = 23;
    /// Number of counters.
    pub const COUNTER_COUNT: usize = 24;

    /// Counter names, indexed by counter id (export order).
    pub const COUNTER_NAMES: [&str; COUNTER_COUNT] = [
        "dkv_read_batches",
        "dkv_read_keys",
        "dkv_write_batches",
        "dkv_write_keys",
        "dkv_read_retries",
        "dkv_write_retries",
        "comm_collectives",
        "pool_jobs",
        "pool_chunks",
        "sampler_steps",
        "checkpoints",
        "recoveries",
        "serve_requests",
        "serve_errors",
        "serve_reloads",
        "serve_conns",
        "serve_shed_conns",
        "serve_deadline_closes",
        "serve_drain_completed",
        "serve_drain_aborted",
        "serve_reload_errors",
        "graph_cache_hits",
        "graph_cache_misses",
        "graph_cache_evictions",
    ];

    // --- gauges -----------------------------------------------------
    /// Worker threads in the active pool.
    pub const G_WORKERS: usize = 0;
    /// Current [`crate::ObsLevel`] as its integer value.
    pub const G_OBS_LEVEL: usize = 1;
    /// serve: connections currently admitted (holding a permit).
    pub const G_SERVE_CONNS_OPEN: usize = 2;
    /// Number of gauges.
    pub const GAUGE_COUNT: usize = 3;

    /// Gauge names, indexed by gauge id.
    pub const GAUGE_NAMES: [&str; GAUGE_COUNT] = ["workers", "obs_level", "serve_conns_open"];

    // --- histograms -------------------------------------------------
    // Histogram `phase as usize` is the phase's wall time (ns).
    /// dkv: per-batch read latency (ns).
    pub const H_DKV_READ_NS: usize = PHASES;
    /// dkv: per-batch write latency (ns).
    pub const H_DKV_WRITE_NS: usize = H_DKV_READ_NS + 1;
    /// comm: per-collective modeled time of the simulated cluster (ns).
    pub const H_COMM_COLLECTIVE_NS: usize = H_DKV_WRITE_NS + 1;
    /// pool: per-job busy time of the claiming worker (ns).
    pub const H_POOL_BUSY_NS: usize = H_COMM_COLLECTIVE_NS + 1;
    /// pool: per-wait idle time of a parked worker (ns).
    pub const H_POOL_IDLE_NS: usize = H_POOL_BUSY_NS + 1;
    /// core: whole sampler step wall time (ns).
    pub const H_STEP_NS: usize = H_POOL_IDLE_NS + 1;
    /// serve: membership-request handling latency (ns).
    pub const H_SERVE_MEMBERSHIP_NS: usize = H_STEP_NS + 1;
    /// serve: edge-likelihood request handling latency (ns).
    pub const H_SERVE_EDGE_NS: usize = H_SERVE_MEMBERSHIP_NS + 1;
    /// serve: community-listing request handling latency (ns).
    pub const H_SERVE_COMMUNITY_NS: usize = H_SERVE_EDGE_NS + 1;
    /// serve: every other endpoint's handling latency (ns).
    pub const H_SERVE_OTHER_NS: usize = H_SERVE_COMMUNITY_NS + 1;
    /// ooc: frame read latency on a cache miss (positioned read +
    /// CRC verification), ns.
    pub const H_GRAPH_READ_NS: usize = H_SERVE_OTHER_NS + 1;
    /// Number of histograms.
    pub const HIST_COUNT: usize = H_GRAPH_READ_NS + 1;

    /// Histogram names, indexed by histogram id; the phase entries first,
    /// in [`Phase`] order.
    pub const HIST_NAMES: [&str; HIST_COUNT] = [
        "phase_draw_minibatch_ns",
        "phase_deploy_minibatch_ns",
        "phase_sample_neighbors_ns",
        "phase_load_pi_ns",
        "phase_update_phi_ns",
        "phase_update_pi_ns",
        "phase_update_beta_theta_ns",
        "phase_perplexity_ns",
        "phase_barrier_ns",
        "phase_prefetch_ns",
        "phase_recovery_ns",
        "dkv_read_ns",
        "dkv_write_ns",
        "comm_collective_ns",
        "pool_busy_ns",
        "pool_idle_ns",
        "step_ns",
        "serve_membership_ns",
        "serve_edge_ns",
        "serve_community_ns",
        "serve_other_ns",
        "graph_read_ns",
    ];

    // --- spans (ids shared with `crate::spans`) ----------------------
    // Span `phase as usize` is the phase's.
    /// Whole sampler step.
    pub const S_STEP: usize = PHASES;
    /// One dkv batched read.
    pub const S_DKV_READ: usize = S_STEP + 1;
    /// One dkv batched write.
    pub const S_DKV_WRITE: usize = S_DKV_READ + 1;
    /// One pool fork-join job (leader-side).
    pub const S_POOL_JOB: usize = S_DKV_WRITE + 1;
    /// One checkpoint capture.
    pub const S_CHECKPOINT: usize = S_POOL_JOB + 1;
    /// One serve request (parse + handle + respond).
    pub const S_SERVE_REQUEST: usize = S_CHECKPOINT + 1;
    /// Number of span ids.
    pub const SPAN_COUNT: usize = S_SERVE_REQUEST + 1;

    /// Span names, indexed by span id; the phase entries first, in
    /// [`Phase`] order. The virtual-time track (`mmsb-netsim`'s
    /// `obs_bridge`) uses the same phase spans, so virtual-time and
    /// real-time views read identically in a trace viewer.
    pub const SPAN_NAMES: [&str; SPAN_COUNT] = [
        "draw_minibatch",
        "deploy_minibatch",
        "sample_neighbors",
        "load_pi",
        "update_phi",
        "update_pi",
        "update_beta_theta",
        "perplexity",
        "barrier",
        "prefetch",
        "recovery",
        "step",
        "dkv_read",
        "dkv_write",
        "pool_job",
        "checkpoint",
        "serve_request",
    ];
}

/// Histogram buckets: bucket 0 holds zero values; bucket `b` (1..=64)
/// holds values with `b` significant bits, i.e. `[2^(b-1), 2^b)`.
pub const HIST_BUCKETS: usize = 65;

#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Sharded metric storage. One flat allocation per kind, made at
/// construction; recording never allocates or locks.
#[derive(Debug)]
pub struct Registry {
    shards: usize,
    /// `shards × COUNTER_COUNT`, shard-major.
    counters: Vec<AtomicU64>,
    /// `GAUGE_COUNT` (unsharded: last-writer-wins is the semantics).
    gauges: Vec<AtomicU64>,
    /// `shards × HIST_COUNT × HIST_BUCKETS`, shard-major.
    hists: Vec<AtomicU64>,
    /// `shards × HIST_COUNT` running sums of recorded values.
    hist_sums: Vec<AtomicU64>,
}

/// Hands out stable per-thread shard indices, process-wide.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// This thread's stable shard index (assigned on first use). Callers
/// fold it onto their shard count with `%`; threads beyond the count
/// share shards, which merges their metrics but loses nothing.
#[inline]
pub fn thread_shard() -> usize {
    THREAD_SHARD.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            return v;
        }
        let v = NEXT_SHARD.fetch_add(1, Ordering::Relaxed);
        s.set(v);
        v
    })
}

fn zeroed(n: usize) -> Vec<AtomicU64> {
    let mut v = Vec::with_capacity(n);
    v.resize_with(n, || AtomicU64::new(0));
    v
}

impl Registry {
    /// A registry with `shards` per-thread slots (minimum 1).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards,
            counters: zeroed(shards * id::COUNTER_COUNT),
            gauges: zeroed(id::GAUGE_COUNT),
            hists: zeroed(shards * id::HIST_COUNT * HIST_BUCKETS),
            hist_sums: zeroed(shards * id::HIST_COUNT),
        }
    }

    /// Shard count this registry was sized with.
    pub fn shards(&self) -> usize {
        self.shards
    }

    #[inline]
    fn shard(&self) -> usize {
        thread_shard() % self.shards
    }

    /// Add `v` to counter `c` in this thread's shard.
    #[inline]
    pub fn counter_add(&self, c: usize, v: u64) {
        debug_assert!(c < id::COUNTER_COUNT);
        let slot = self.shard() * id::COUNTER_COUNT + c;
        self.counters[slot].fetch_add(v, Ordering::Relaxed);
    }

    /// Counter `c` summed across shards.
    pub fn counter_total(&self, c: usize) -> u64 {
        (0..self.shards)
            .map(|s| self.counters[s * id::COUNTER_COUNT + c].load(Ordering::Relaxed))
            .sum()
    }

    /// Set gauge `g` (last writer wins).
    #[inline]
    pub fn gauge_set(&self, g: usize, v: u64) {
        debug_assert!(g < id::GAUGE_COUNT);
        self.gauges[g].store(v, Ordering::Relaxed);
    }

    /// Current value of gauge `g`.
    pub fn gauge(&self, g: usize) -> u64 {
        self.gauges[g].load(Ordering::Relaxed)
    }

    /// Record `v` into histogram `h` in this thread's shard.
    #[inline]
    pub fn hist_record(&self, h: usize, v: u64) {
        debug_assert!(h < id::HIST_COUNT);
        let shard = self.shard();
        let slot = (shard * id::HIST_COUNT + h) * HIST_BUCKETS + bucket_of(v);
        self.hists[slot].fetch_add(1, Ordering::Relaxed);
        self.hist_sums[shard * id::HIST_COUNT + h].fetch_add(v, Ordering::Relaxed);
    }

    /// Total samples recorded into histogram `h`, across shards.
    pub fn hist_count(&self, h: usize) -> u64 {
        (0..HIST_BUCKETS).map(|b| self.hist_bucket(h, b)).sum()
    }

    /// Sum of all values recorded into histogram `h`, across shards.
    pub fn hist_sum(&self, h: usize) -> u64 {
        (0..self.shards)
            .map(|s| self.hist_sums[s * id::HIST_COUNT + h].load(Ordering::Relaxed))
            .sum()
    }

    /// Samples in bucket `b` of histogram `h`, merged across shards.
    pub fn hist_bucket(&self, h: usize, b: usize) -> u64 {
        (0..self.shards)
            .map(|s| {
                self.hists[(s * id::HIST_COUNT + h) * HIST_BUCKETS + b].load(Ordering::Relaxed)
            })
            .sum()
    }

    /// Smallest `p`-quantile upper bound from the merged buckets: the
    /// exclusive upper edge `2^b` of the first bucket whose cumulative
    /// count reaches `p` of the total, or 0 when empty.
    pub fn hist_quantile_upper_ns(&self, h: usize, p: f64) -> u64 {
        let total = self.hist_count(h);
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * p.clamp(0.0, 1.0)).ceil() as u64;
        let mut cum = 0u64;
        for b in 0..HIST_BUCKETS {
            cum += self.hist_bucket(h, b);
            if cum >= target.max(1) {
                return if b == 0 { 0 } else { 1u64 << b.min(63) };
            }
        }
        u64::MAX
    }

    /// Reset every counter, gauge, and histogram slot to zero. Not for
    /// the hot path — used between bench sweeps and in tests.
    pub fn clear(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
        for g in &self.gauges {
            g.store(0, Ordering::Relaxed);
        }
        for hb in &self.hists {
            hb.store(0, Ordering::Relaxed);
        }
        for hs in &self.hist_sums {
            hs.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn counters_merge_across_shards() {
        let r = Registry::new(4);
        r.counter_add(id::C_POOL_JOBS, 3);
        r.counter_add(id::C_POOL_JOBS, 4);
        assert_eq!(r.counter_total(id::C_POOL_JOBS), 7);
        assert_eq!(r.counter_total(id::C_POOL_CHUNKS), 0);

        let r2 = std::sync::Arc::new(Registry::new(2));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let r2 = r2.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        r2.counter_add(id::C_DKV_READ_KEYS, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r2.counter_total(id::C_DKV_READ_KEYS), 400);
    }

    #[test]
    fn gauges_last_writer_wins() {
        let r = Registry::new(1);
        r.gauge_set(id::G_WORKERS, 4);
        r.gauge_set(id::G_WORKERS, 8);
        assert_eq!(r.gauge(id::G_WORKERS), 8);
    }

    #[test]
    fn histogram_counts_sums_and_quantiles() {
        let r = Registry::new(2);
        for v in [0u64, 1, 2, 3, 1000, 1_000_000] {
            r.hist_record(id::H_STEP_NS, v);
        }
        assert_eq!(r.hist_count(id::H_STEP_NS), 6);
        assert_eq!(r.hist_sum(id::H_STEP_NS), 1_001_006);
        assert_eq!(r.hist_bucket(id::H_STEP_NS, 0), 1); // the zero
        assert_eq!(r.hist_bucket(id::H_STEP_NS, 1), 1); // 1
        assert_eq!(r.hist_bucket(id::H_STEP_NS, 2), 2); // 2, 3
                                                        // p50 of six samples lands in bucket 2 -> upper edge 4.
        assert_eq!(r.hist_quantile_upper_ns(id::H_STEP_NS, 0.5), 4);
        // p100 covers the 1e6 sample: 2^20 = 1048576 >= 1e6.
        assert_eq!(r.hist_quantile_upper_ns(id::H_STEP_NS, 1.0), 1 << 20);
        assert_eq!(r.hist_quantile_upper_ns(id::H_DKV_READ_NS, 0.5), 0);
    }

    #[test]
    fn clear_zeroes_everything() {
        let r = Registry::new(2);
        r.counter_add(id::C_SAMPLER_STEPS, 5);
        r.gauge_set(id::G_OBS_LEVEL, 2);
        r.hist_record(id::H_DKV_READ_NS, 42);
        r.clear();
        assert_eq!(r.counter_total(id::C_SAMPLER_STEPS), 0);
        assert_eq!(r.gauge(id::G_OBS_LEVEL), 0);
        assert_eq!(r.hist_count(id::H_DKV_READ_NS), 0);
        assert_eq!(r.hist_sum(id::H_DKV_READ_NS), 0);
    }

    #[test]
    fn name_tables_line_up_with_ids() {
        assert_eq!(id::COUNTER_NAMES.len(), id::COUNTER_COUNT);
        assert_eq!(id::GAUGE_NAMES.len(), id::GAUGE_COUNT);
        assert_eq!(id::HIST_NAMES.len(), id::HIST_COUNT);
        assert_eq!(id::SPAN_NAMES.len(), id::SPAN_COUNT);
        assert_eq!(id::HIST_NAMES[id::H_STEP_NS], "step_ns");
        assert_eq!(id::SPAN_NAMES[Phase::UpdatePhi as usize], "update_phi");
        assert_eq!(
            id::HIST_NAMES[Phase::Recovery as usize],
            "phase_recovery_ns"
        );
        assert_eq!(id::SPAN_NAMES[id::S_STEP], "step");
        for (i, p) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(p as usize, i);
        }
    }
}
