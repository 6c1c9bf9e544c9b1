//! Chunked `pi` reads and the timing model of pipelining them.
//!
//! Loading `pi` from the DKV store dominates `update_phi` (Table III: 205
//! of 285 ms). The paper hides that latency by splitting the load into
//! chunks and fetching chunk `i+1` while computing on chunk `i` (§III-D).
//! The simulated cluster runs on one thread, so this module *models* the
//! overlap rather than executing it:
//!
//! * [`schedule`] — the pure timing algebra of a two-stage pipeline,
//!   verified against hand-computed cases,
//! * [`ChunkReader`] — the one loader. Every chunk is read, then computed
//!   on; loads are priced with the store's cost model, computes are
//!   measured, and the pass returns one [`PipelineRun`] whose makespan is
//!   [`schedule`] under the reader's [`PipelineMode`]: `Single` pays every
//!   load, `Double` only the part the previous chunk's compute cannot
//!   hide.
//!
//! The mode changes nothing but that price: chunk boundaries, delivery
//! order and bytes are the same, so the chain is too. The reader borrows
//! its buffers from a caller-owned [`ReaderScratch`] so steady-state
//! operation performs no heap allocation (pinned by
//! `crates/core/tests/zero_alloc.rs`).

use crate::{DkvError, DkvStore, ShardedStore};
use mmsb_netsim::NetworkModel;
use mmsb_obs::clock::Stopwatch;

/// Buffering mode for the `pi` loader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineMode {
    /// Load a chunk, compute on it, repeat — no overlap.
    Single,
    /// Double buffering: load of chunk `i+1` overlaps compute on chunk `i`.
    Double,
}

/// Makespan of a two-stage pipeline with per-chunk `loads` and `computes`.
///
/// * `Single`: `Σ (load_i + compute_i)`.
/// * `Double`: `load_0 + Σ_{i=1..n-1} max(load_i, compute_{i-1}) +
///   compute_{n-1}` — each subsequent load hides behind the previous
///   compute (or vice versa).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn schedule(loads: &[f64], computes: &[f64], mode: PipelineMode) -> f64 {
    assert_eq!(
        loads.len(),
        computes.len(),
        "every chunk needs a load and a compute time"
    );
    let n = loads.len();
    if n == 0 {
        return 0.0;
    }
    match mode {
        PipelineMode::Single => loads.iter().sum::<f64>() + computes.iter().sum::<f64>(),
        PipelineMode::Double => {
            let mut t = loads[0];
            for i in 1..n {
                t += loads[i].max(computes[i - 1]);
            }
            t + computes[n - 1]
        }
    }
}

/// Result of one chunked, cost-accounted read-compute pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineRun {
    /// Modeled makespan in seconds under the reader's mode.
    pub total: f64,
    /// Sum of modeled load (DKV read) times.
    pub load: f64,
    /// Sum of measured compute times.
    pub compute: f64,
    /// Number of chunks executed.
    pub chunks: usize,
}

impl PipelineRun {
    /// Load time the schedule hid behind compute: `load + compute -
    /// total`. Zero under [`PipelineMode::Single`]; never more than
    /// `load` or `compute` under [`PipelineMode::Double`].
    pub fn hidden(&self) -> f64 {
        (self.load + self.compute - self.total).max(0.0)
    }
}

/// Reusable buffers for [`ChunkReader`].
///
/// Owns the row buffer, the per-chunk timing vectors and the
/// chunk-boundary table. All storage grows to the high-water mark on
/// first use and is reused afterwards, so a warmed reader performs zero
/// heap allocations per pass.
#[derive(Debug, Default)]
pub struct ReaderScratch {
    /// Rows of the chunk being computed on.
    rows: Vec<f32>,
    /// Modeled per-chunk load times (seconds).
    loads: Vec<f64>,
    /// Measured per-chunk compute times (seconds).
    computes: Vec<f64>,
    /// Exclusive end offset (into the key slice) of each chunk.
    ends: Vec<usize>,
}

impl ReaderScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Chunk boundaries for fixed-size chunking of `n_keys` keys.
    fn fill_ends_fixed(&mut self, n_keys: usize, chunk_size: usize) {
        self.ends.clear();
        let mut pos = 0;
        while pos < n_keys {
            pos = (pos + chunk_size).min(n_keys);
            self.ends.push(pos);
        }
    }

    /// Chunk boundaries from caller-provided per-chunk key counts.
    fn fill_ends_segments(&mut self, seg_lens: &[usize], n_keys: usize) {
        self.ends.clear();
        let mut pos = 0;
        for &len in seg_lens {
            assert!(len > 0, "empty segment");
            pos += len;
            self.ends.push(pos);
        }
        assert_eq!(pos, n_keys, "segments must cover the key slice exactly");
    }

    /// Largest chunk, in keys, of the current boundary table.
    fn max_chunk_keys(&self) -> usize {
        let mut max = 0;
        let mut start = 0;
        for &end in &self.ends {
            max = max.max(end - start);
            start = end;
        }
        max
    }
}

/// The chunked `pi` loader over a [`ShardedStore`].
///
/// Each chunk is read into the scratch row buffer, then handed to the
/// compute callback, in key order. The [`PipelineMode`] decides only how
/// the pass is priced (see [`schedule`]), so both modes deliver identical
/// chunks in identical order and all downstream numerics agree.
#[derive(Debug, Clone, Copy)]
pub struct ChunkReader {
    chunk_size: usize,
    compute_scale: f64,
    mode: PipelineMode,
}

impl ChunkReader {
    /// Create a reader with the given chunk size and mode.
    ///
    /// # Panics
    /// Panics if `chunk_size == 0`.
    pub fn new(chunk_size: usize, mode: PipelineMode) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        Self {
            chunk_size,
            compute_scale: 1.0,
            mode,
        }
    }

    /// Multiply measured per-chunk compute times by `scale` before they
    /// enter the modeled makespan — the hook for per-node
    /// thread-parallelism models that shrink the serial measurement.
    pub fn with_compute_scale(mut self, scale: f64) -> Self {
        self.compute_scale = scale;
        self
    }

    /// Read `keys` in chunks of the configured size from `store` as rank
    /// `rank`, invoking `compute(chunk_start, chunk_keys, rows)` on each
    /// chunk's rows.
    ///
    /// Loads are priced with [`ShardedStore::read_cost`]; computes are
    /// measured with a monotonic clock and scaled by the compute scale.
    pub fn run<F>(
        &self,
        store: &ShardedStore,
        rank: usize,
        keys: &[u32],
        net: &NetworkModel,
        scratch: &mut ReaderScratch,
        compute: F,
    ) -> Result<PipelineRun, DkvError>
    where
        F: FnMut(usize, &[u32], &[f32]),
    {
        scratch.fill_ends_fixed(keys.len(), self.chunk_size);
        self.run_inner(store, rank, keys, net, scratch, compute)
    }

    /// Like [`ChunkReader::run`], but with caller-defined chunk
    /// boundaries: `seg_lens[i]` keys in chunk `i` (summing to
    /// `keys.len()`). Used by the samplers, which chunk by *vertices* and
    /// therefore produce a variable number of keys per chunk.
    #[allow(clippy::too_many_arguments)] // mirrors `run` plus the boundary table
    pub fn run_segments<F>(
        &self,
        store: &ShardedStore,
        rank: usize,
        keys: &[u32],
        seg_lens: &[usize],
        net: &NetworkModel,
        scratch: &mut ReaderScratch,
        compute: F,
    ) -> Result<PipelineRun, DkvError>
    where
        F: FnMut(usize, &[u32], &[f32]),
    {
        scratch.fill_ends_segments(seg_lens, keys.len());
        self.run_inner(store, rank, keys, net, scratch, compute)
    }

    fn run_inner<F>(
        &self,
        store: &ShardedStore,
        rank: usize,
        keys: &[u32],
        net: &NetworkModel,
        scratch: &mut ReaderScratch,
        mut compute: F,
    ) -> Result<PipelineRun, DkvError>
    where
        F: FnMut(usize, &[u32], &[f32]),
    {
        let row_len = store.row_len();
        let max_rows = scratch.max_chunk_keys() * row_len;
        let ReaderScratch {
            rows,
            loads,
            computes,
            ends,
        } = scratch;
        loads.clear();
        computes.clear();
        if rows.len() < max_rows {
            rows.resize(max_rows, 0.0);
        }
        let mut start = 0;
        for &end in ends.iter() {
            let chunk = &keys[start..end];
            let chunk_rows = &mut rows[..chunk.len() * row_len];
            store.read_batch(chunk, chunk_rows)?;
            loads.push(store.read_cost(rank, chunk, net));
            let t0 = Stopwatch::start();
            compute(start, chunk, chunk_rows);
            computes.push(t0.elapsed_secs() * self.compute_scale);
            start = end;
        }
        Ok(PipelineRun {
            total: schedule(loads, computes, self.mode),
            load: loads.iter().sum(),
            compute: computes.iter().sum(),
            chunks: loads.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Partition;
    use mmsb_rand::{Rng, Xoshiro256PlusPlus};

    #[test]
    fn schedule_empty_is_zero() {
        assert_eq!(schedule(&[], &[], PipelineMode::Single), 0.0);
        assert_eq!(schedule(&[], &[], PipelineMode::Double), 0.0);
    }

    #[test]
    fn schedule_single_chunk() {
        // One chunk cannot overlap anything.
        let s = schedule(&[2.0], &[3.0], PipelineMode::Single);
        let d = schedule(&[2.0], &[3.0], PipelineMode::Double);
        assert_eq!(s, 5.0);
        assert_eq!(d, 5.0);
    }

    #[test]
    fn schedule_hand_computed_case() {
        // loads   = [1, 4, 2]
        // compute = [3, 3, 3]
        // single: 1+3 + 4+3 + 2+3 = 16
        // double: 1 + max(4,3) + max(2,3) + 3 = 1+4+3+3 = 11
        let loads = [1.0, 4.0, 2.0];
        let computes = [3.0, 3.0, 3.0];
        assert_eq!(schedule(&loads, &computes, PipelineMode::Single), 16.0);
        assert_eq!(schedule(&loads, &computes, PipelineMode::Double), 11.0);
    }

    #[test]
    fn perfectly_hidden_loads() {
        // When every load fits under the previous compute, double buffering
        // costs load_0 + sum(computes).
        let loads = [1.0, 0.5, 0.5, 0.5];
        let computes = [2.0, 2.0, 2.0, 2.0];
        let d = schedule(&loads, &computes, PipelineMode::Double);
        assert_eq!(d, 1.0 + 8.0);
    }

    #[test]
    #[should_panic(expected = "every chunk")]
    fn mismatched_lengths_panic() {
        schedule(&[1.0], &[], PipelineMode::Single);
    }

    /// Double buffering never loses to sequential execution and never
    /// beats the critical-path lower bounds. Checked over 128 random
    /// chunk profiles.
    #[test]
    fn schedule_bounds() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xD2);
        for case in 0..128 {
            let n = 1 + rng.below(19) as usize;
            let loads: Vec<f64> = (0..n).map(|_| rng.next_f64() * 10.0).collect();
            let computes: Vec<f64> = (0..n).map(|_| rng.next_f64() * 10.0).collect();
            let single = schedule(&loads, &computes, PipelineMode::Single);
            let double = schedule(&loads, &computes, PipelineMode::Double);
            assert!(double <= single + 1e-9, "case {case}");
            let sum_loads: f64 = loads.iter().sum();
            let sum_computes: f64 = computes.iter().sum();
            // Critical path: all loads must happen; all computes must happen.
            assert!(double + 1e-9 >= sum_loads.max(sum_computes), "case {case}");
            // And the first load plus last compute are always exposed.
            assert!(
                double + 1e-9 >= loads[0] + computes[computes.len() - 1],
                "case {case}"
            );
        }
    }

    fn test_store(ranks: usize) -> ShardedStore {
        let mut s = ShardedStore::new(Partition::new(64, ranks), 2);
        let keys: Vec<u32> = (0..64).collect();
        let vals: Vec<f32> = keys.iter().flat_map(|&k| [k as f32, -(k as f32)]).collect();
        s.write_batch(&keys, &vals).unwrap();
        s
    }

    #[test]
    fn reader_visits_all_chunks_in_order() {
        let store = test_store(4);
        let net = NetworkModel::fdr_infiniband();
        let keys: Vec<u32> = (0..10).collect();
        let reader = ChunkReader::new(4, PipelineMode::Double);
        let mut scratch = ReaderScratch::new();
        let mut seen: Vec<(usize, Vec<u32>, Vec<f32>)> = Vec::new();
        let run = reader
            .run(&store, 0, &keys, &net, &mut scratch, |start, ks, rows| {
                seen.push((start, ks.to_vec(), rows.to_vec()));
            })
            .unwrap();
        assert_eq!(run.chunks, 3); // 4 + 4 + 2
        assert_eq!(seen[0].0, 0);
        assert_eq!(seen[1].0, 4);
        assert_eq!(seen[2].0, 8);
        assert_eq!(seen[2].1, vec![8, 9]);
        // Row contents delivered intact.
        assert_eq!(seen[0].2[0..2], [0.0, -0.0]);
        assert_eq!(seen[1].2[0..2], [4.0, -4.0]);
    }

    #[test]
    fn reader_modes_have_identical_data_different_time() {
        let store = test_store(8);
        let net = NetworkModel::fdr_infiniband();
        let keys: Vec<u32> = (0..64).collect();
        let mut scratch = ReaderScratch::new();
        let mut sums = Vec::new();
        for mode in [PipelineMode::Single, PipelineMode::Double] {
            let reader = ChunkReader::new(8, mode);
            assert_eq!(reader.mode, mode);
            let mut sum = 0.0f64;
            let run = reader
                .run(&store, 0, &keys, &net, &mut scratch, |_, _, rows| {
                    sum += rows.iter().map(|&x| x as f64).sum::<f64>();
                    // Busy work so compute time is non-trivial relative to
                    // the modeled load times.
                    for _ in 0..2000 {
                        std::hint::black_box(sum);
                    }
                })
                .unwrap();
            sums.push(sum);
            assert!(run.total > 0.0);
            assert!(run.load > 0.0);
            assert!(run.compute > 0.0);
            // Only Double hides load time behind compute.
            assert_eq!(run.hidden() > 0.0, mode == PipelineMode::Double, "{mode:?}");
        }
        assert_eq!(sums[0], sums[1], "pipelining changed the numerics");
    }

    #[test]
    fn reader_propagates_store_errors() {
        let store = test_store(2);
        let net = NetworkModel::fdr_infiniband();
        let mut scratch = ReaderScratch::new();
        for mode in [PipelineMode::Single, PipelineMode::Double] {
            let err = ChunkReader::new(4, mode)
                .run(&store, 0, &[1000], &net, &mut scratch, |_, _, _| {})
                .unwrap_err();
            assert!(matches!(err, DkvError::KeyOutOfRange { .. }), "{mode:?}");
        }
    }

    #[test]
    fn reader_segments_follow_caller_boundaries() {
        let store = test_store(4);
        let net = NetworkModel::fdr_infiniband();
        let keys: Vec<u32> = (0..10).collect();
        let reader = ChunkReader::new(4, PipelineMode::Single);
        let mut scratch = ReaderScratch::new();
        let mut seen: Vec<(usize, Vec<u32>)> = Vec::new();
        let run = reader
            .run_segments(
                &store,
                0,
                &keys,
                &[3, 1, 6],
                &net,
                &mut scratch,
                |start, ks, _| {
                    seen.push((start, ks.to_vec()));
                },
            )
            .unwrap();
        assert_eq!(run.chunks, 3);
        assert_eq!(seen[0], (0, vec![0, 1, 2]));
        assert_eq!(seen[1], (3, vec![3]));
        assert_eq!(seen[2], (4, vec![4, 5, 6, 7, 8, 9]));
    }

    #[test]
    #[should_panic(expected = "cover the key slice")]
    fn reader_segments_must_cover_keys() {
        let store = test_store(4);
        let net = NetworkModel::fdr_infiniband();
        let reader = ChunkReader::new(4, PipelineMode::Single);
        let mut scratch = ReaderScratch::new();
        let _ = reader.run_segments(
            &store,
            0,
            &[0, 1, 2],
            &[2],
            &net,
            &mut scratch,
            |_, _, _| {},
        );
    }

    /// Run `keys` through a fresh reader in `mode`, recording every
    /// delivery.
    #[allow(clippy::type_complexity)]
    fn deliveries(
        store: &ShardedStore,
        mode: PipelineMode,
        keys: &[u32],
        segs: Option<&[usize]>,
    ) -> (PipelineRun, Vec<(usize, Vec<u32>, Vec<f32>)>) {
        let net = NetworkModel::fdr_infiniband();
        let reader = ChunkReader::new(8, mode);
        let mut scratch = ReaderScratch::new();
        let mut seen = Vec::new();
        let record = |start: usize, ks: &[u32], rows: &[f32]| {
            seen.push((start, ks.to_vec(), rows.to_vec()));
        };
        let run = match segs {
            None => reader.run(store, 0, keys, &net, &mut scratch, record),
            Some(segs) => reader.run_segments(store, 0, keys, segs, &net, &mut scratch, record),
        }
        .unwrap();
        (run, seen)
    }

    /// A `Double` reader delivers exactly what a `Single` one does and
    /// prices the same loads; only the makespan differs.
    #[test]
    fn prefetching_reader_matches_synchronous_reader() {
        let store = test_store(8);
        let keys: Vec<u32> = (0..64).rev().collect();
        let (sync_run, sync_seen) = deliveries(&store, PipelineMode::Single, &keys, None);
        let (pre_run, pre_seen) = deliveries(&store, PipelineMode::Double, &keys, None);
        assert_eq!(sync_seen, pre_seen, "prefetching changed delivered data");
        assert_eq!(pre_run.chunks, sync_run.chunks);
        assert_eq!(pre_run.load, sync_run.load);
        assert_eq!(sync_run.total, sync_run.load + sync_run.compute);
        assert_eq!(sync_run.hidden(), 0.0);
        assert!(pre_run.total <= pre_run.load + pre_run.compute + 1e-12);
        assert!(pre_run.hidden() <= pre_run.load.min(pre_run.compute) + 1e-12);
    }

    #[test]
    fn prefetching_reader_is_reusable_across_passes() {
        let store = test_store(4);
        let net = NetworkModel::fdr_infiniband();
        let keys: Vec<u32> = (0..32).collect();
        let reader = ChunkReader::new(4, PipelineMode::Double);
        let mut scratch = ReaderScratch::new();
        let mut sums = Vec::new();
        for _ in 0..5 {
            let mut sum = 0.0f64;
            reader
                .run(&store, 0, &keys, &net, &mut scratch, |_, _, rows| {
                    sum += rows.iter().map(|&x| x as f64).sum::<f64>();
                })
                .unwrap();
            sums.push(sum);
        }
        assert!(sums.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn prefetching_reader_segments_match_synchronous() {
        let store = test_store(4);
        let keys: Vec<u32> = (0..20).collect();
        let segs = [7usize, 2, 5, 6];
        let (sync_run, sync_seen) = deliveries(&store, PipelineMode::Single, &keys, Some(&segs));
        let (pre_run, pre_seen) = deliveries(&store, PipelineMode::Double, &keys, Some(&segs));
        assert_eq!(sync_seen, pre_seen);
        assert_eq!((sync_run.chunks, pre_run.chunks), (4, 4));
        assert_eq!(pre_run.load, sync_run.load);
    }

    /// A bad key in a later chunk fails the pass after the earlier chunks
    /// were computed on, and the reader works on the next pass.
    #[test]
    fn prefetching_reader_propagates_background_load_errors() {
        let store = test_store(2);
        let net = NetworkModel::fdr_infiniband();
        // Chunk 0 is valid; chunk 1 contains an out-of-range key.
        let keys: Vec<u32> = vec![0, 1, 1000, 1001];
        let reader = ChunkReader::new(2, PipelineMode::Double);
        let mut scratch = ReaderScratch::new();
        let mut computed = Vec::new();
        let err = reader
            .run(&store, 0, &keys, &net, &mut scratch, |start, _, _| {
                computed.push(start)
            })
            .unwrap_err();
        assert!(matches!(err, DkvError::KeyOutOfRange { .. }));
        assert_eq!(computed, vec![0]);
        let ok_keys: Vec<u32> = (0..8).collect();
        reader
            .run(&store, 0, &ok_keys, &net, &mut scratch, |_, _, _| {})
            .unwrap();
    }

    #[test]
    fn prefetching_reader_survives_compute_panic() {
        let store = test_store(2);
        let net = NetworkModel::fdr_infiniband();
        let keys: Vec<u32> = (0..16).collect();
        let reader = ChunkReader::new(4, PipelineMode::Double);
        let mut scratch = ReaderScratch::new();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = reader.run(&store, 0, &keys, &net, &mut scratch, |start, _, _| {
                if start >= 4 {
                    panic!("compute boom");
                }
            });
        }))
        .expect_err("compute panic must propagate");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"compute boom"));
        // The reader and its scratch still work after the unwind.
        let mut count = 0;
        reader
            .run(&store, 0, &keys, &net, &mut scratch, |_, _, _| count += 1)
            .unwrap();
        assert_eq!(count, 4);
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn zero_chunk_panics() {
        ChunkReader::new(0, PipelineMode::Single);
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn zero_chunk_prefetch_panics() {
        ChunkReader::new(0, PipelineMode::Double);
    }
}
