//! Chunked `pi` reads and the timing model of pipelining them.
//!
//! Loading `pi` from the DKV store dominates `update_phi` (Table III: 205
//! of 285 ms). The paper hides that latency by splitting the load into
//! chunks and fetching chunk `i+1` while computing on chunk `i` (§III-D).
//! The simulated cluster reads `pi` from the master's state, so this
//! module *models* the load and the overlap rather than executing them:
//!
//! * [`schedule`] — the pure timing algebra of a two-stage pipeline,
//!   verified against hand-computed cases,
//! * [`ChunkReader`] — the one loader. It groups the caller's items
//!   (mini-batch vertices) into chunks, prices each chunk's keys with
//!   the [`CostModel`], runs the caller's compute on the chunk and prices
//!   that compute by the rows the chunk delivered; the pass returns one
//!   [`PipelineRun`] whose makespan is [`schedule`] under the reader's
//!   [`PipelineMode`]: `Single` pays every load, `Double` only the part
//!   the previous chunk's compute cannot hide.
//!
//! The mode changes nothing but that price: chunk boundaries and compute
//! order are the same, so the chain is too. No clock is read, so a pass's
//! price depends on its keys alone — not on the host or on what else runs
//! beside it — and a reader per thread may run passes concurrently. The
//! reader keeps its per-chunk prices across passes, so steady-state
//! operation performs no heap allocation (pinned by
//! `crates/core/tests/zero_alloc.rs`).

use crate::store::check_keys;
use crate::{CostModel, DkvError, OpObs};
use std::ops::Range;

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
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineRun {
    /// Modeled makespan in seconds under the reader's mode.
    pub total: f64,
    /// Sum of modeled load (DKV read) times.
    pub load: f64,
    /// Sum of priced compute times.
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

/// The chunked `pi` loader.
///
/// Items `[0, n)` — each owning a run of keys — are grouped into chunks
/// of `chunk_size` items. Each chunk's keys are priced, then the compute
/// callback runs on the chunk, in item order, and is charged the
/// reader's compute price per key. The [`PipelineMode`] decides only how
/// the pass is priced (see [`schedule`]), so both modes compute identical
/// chunks in identical order and all downstream numerics agree. The
/// per-chunk prices persist across passes: a warmed reader allocates
/// nothing.
#[derive(Debug, Clone)]
pub struct ChunkReader {
    chunk_size: usize,
    /// Modeled compute seconds per key a chunk delivers.
    key_compute: f64,
    mode: PipelineMode,
    /// Modeled per-chunk load times of the last pass (seconds).
    loads: Vec<f64>,
    /// Modeled per-chunk compute times of the last pass (seconds).
    computes: Vec<f64>,
}

impl ChunkReader {
    /// Create a reader with the given chunk size (in items) and mode,
    /// whose compute is free until [`ChunkReader::with_key_compute`]
    /// prices it.
    ///
    /// # Panics
    /// Panics if `chunk_size == 0`.
    pub fn new(chunk_size: usize, mode: PipelineMode) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        Self {
            chunk_size,
            key_compute: 0.0,
            mode,
            loads: Vec::new(),
            computes: Vec::new(),
        }
    }

    /// Charge each chunk's compute `seconds` per key it delivered — the
    /// caller's per-row work, already scaled by whatever node model it
    /// runs under.
    pub fn with_key_compute(mut self, seconds: f64) -> Self {
        self.key_compute = seconds;
        self
    }

    /// One pass as rank `rank`: item `i` owns `keys[ends[i - 1]..ends[i]]`
    /// (`ends` is non-decreasing and ends at `keys.len()`). For each
    /// chunk of items, the chunk's keys are priced with
    /// [`CostModel::read_cost`] and recorded as one DKV read ([`OpObs`]),
    /// then `compute(items, chunk_keys)` runs and is charged the compute
    /// price of the chunk's keys.
    ///
    /// A key outside the partition fails the pass at its chunk, after
    /// the earlier chunks were computed on.
    ///
    /// # Panics
    /// Panics if `ends` does not end at `keys.len()`.
    pub fn run<F>(
        &mut self,
        cost: &CostModel,
        rank: usize,
        keys: &[u32],
        ends: &[usize],
        mut compute: F,
    ) -> Result<PipelineRun, DkvError>
    where
        F: FnMut(Range<usize>, &[u32]),
    {
        assert_eq!(
            ends.last().copied().unwrap_or(0),
            keys.len(),
            "item ends must cover the key slice exactly"
        );
        self.loads.clear();
        self.computes.clear();
        let mut start = 0;
        let mut first = 0;
        for chunk_ends in ends.chunks(self.chunk_size) {
            let items = first..first + chunk_ends.len();
            let end = chunk_ends[chunk_ends.len() - 1];
            let chunk = &keys[start..end];
            check_keys(cost.partition().num_keys(), chunk)?;
            {
                let _obs = OpObs::read(chunk);
                self.loads.push(cost.read_cost(rank, chunk));
            }
            compute(items, chunk);
            self.computes.push(chunk.len() as f64 * self.key_compute);
            first += chunk_ends.len();
            start = end;
        }
        Ok(PipelineRun {
            total: schedule(&self.loads, &self.computes, self.mode),
            load: self.loads.iter().sum(),
            compute: self.computes.iter().sum(),
            chunks: self.loads.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Partition;
    use mmsb_netsim::NetworkModel;
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

    fn test_cost(ranks: usize) -> CostModel {
        CostModel::new(Partition::new(64, ranks), 2, NetworkModel::fdr_infiniband())
    }

    /// Item ends of one key per item.
    fn unit_ends(n: usize) -> Vec<usize> {
        (1..=n).collect()
    }

    #[test]
    fn reader_visits_all_chunks_in_order() {
        let cost = test_cost(4);
        let keys: Vec<u32> = (0..10).collect();
        let mut reader = ChunkReader::new(4, PipelineMode::Double);
        let mut seen: Vec<(Range<usize>, Vec<u32>)> = Vec::new();
        let run = reader
            .run(&cost, 0, &keys, &unit_ends(10), |items, ks| {
                seen.push((items, ks.to_vec()));
            })
            .unwrap();
        assert_eq!(run.chunks, 3); // 4 + 4 + 2
        assert_eq!(seen[0], (0..4, vec![0, 1, 2, 3]));
        assert_eq!(seen[1], (4..8, vec![4, 5, 6, 7]));
        assert_eq!(seen[2], (8..10, vec![8, 9]));
    }

    #[test]
    fn reader_modes_have_identical_data_different_time() {
        let cost = test_cost(8);
        let keys: Vec<u32> = (0..64).collect();
        let mut sums = Vec::new();
        for mode in [PipelineMode::Single, PipelineMode::Double] {
            let mut reader = ChunkReader::new(8, mode).with_key_compute(1e-6);
            assert_eq!(reader.mode, mode);
            let mut sum = 0u64;
            let run = reader
                .run(&cost, 0, &keys, &unit_ends(64), |_, ks| {
                    sum += ks.iter().map(|&k| u64::from(k)).sum::<u64>();
                })
                .unwrap();
            sums.push(sum);
            assert!(run.total > 0.0);
            assert!(run.load > 0.0);
            assert!((run.compute - 64e-6).abs() < 1e-15, "{}", run.compute);
            // Only Double hides load time behind compute.
            assert_eq!(run.hidden() > 0.0, mode == PipelineMode::Double, "{mode:?}");
        }
        assert_eq!(sums[0], sums[1], "pipelining changed the numerics");
    }

    #[test]
    fn reader_propagates_store_errors() {
        let cost = test_cost(2);
        for mode in [PipelineMode::Single, PipelineMode::Double] {
            let err = ChunkReader::new(4, mode)
                .run(&cost, 0, &[1000], &[1], |_, _| {})
                .unwrap_err();
            assert!(matches!(err, DkvError::KeyOutOfRange { .. }), "{mode:?}");
        }
    }

    #[test]
    fn reader_segments_follow_caller_boundaries() {
        // Items own 3, 1 and 6 keys; one item per chunk.
        let cost = test_cost(4);
        let keys: Vec<u32> = (0..10).collect();
        let mut reader = ChunkReader::new(1, PipelineMode::Single);
        let mut seen: Vec<(Range<usize>, Vec<u32>)> = Vec::new();
        let run = reader
            .run(&cost, 0, &keys, &[3, 4, 10], |items, ks| {
                seen.push((items, ks.to_vec()));
            })
            .unwrap();
        assert_eq!(run.chunks, 3);
        assert_eq!(seen[0], (0..1, vec![0, 1, 2]));
        assert_eq!(seen[1], (1..2, vec![3]));
        assert_eq!(seen[2], (2..3, vec![4, 5, 6, 7, 8, 9]));
    }

    /// Each chunk's compute is charged per key it delivered: chunks of 3,
    /// 1 and 6 keys cost 3, 1 and 6 key prices, whatever the closure
    /// does.
    #[test]
    fn reader_prices_compute_by_delivered_keys() {
        let cost = test_cost(4);
        let keys: Vec<u32> = (0..10).collect();
        let price = 0.25;
        let mut reader = ChunkReader::new(1, PipelineMode::Single).with_key_compute(price);
        let run = reader.run(&cost, 0, &keys, &[3, 4, 10], |_, _| {}).unwrap();
        assert_eq!(reader.computes, [3.0 * price, price, 6.0 * price]);
        assert_eq!(run.compute, 10.0 * price);
        assert_eq!(run.total, run.load + run.compute);
        let free = ChunkReader::new(1, PipelineMode::Single)
            .run(&cost, 0, &keys, &[3, 4, 10], |_, _| {})
            .unwrap();
        assert_eq!((free.compute, free.load), (0.0, run.load));
    }

    #[test]
    #[should_panic(expected = "cover the key slice")]
    fn reader_segments_must_cover_keys() {
        let cost = test_cost(4);
        let mut reader = ChunkReader::new(4, PipelineMode::Single);
        let _ = reader.run(&cost, 0, &[0, 1, 2], &[2], |_, _| {});
    }

    /// Run `keys` (items ending at `ends`) through a fresh reader of
    /// `chunk` items in `mode`, recording every chunk.
    #[allow(clippy::type_complexity)]
    fn deliveries(
        mode: PipelineMode,
        chunk: usize,
        keys: &[u32],
        ends: &[usize],
    ) -> (PipelineRun, Vec<(Range<usize>, Vec<u32>)>) {
        let mut reader = ChunkReader::new(chunk, mode).with_key_compute(2e-7);
        let mut seen = Vec::new();
        let run = reader
            .run(&test_cost(8), 0, keys, ends, |items, ks| {
                seen.push((items, ks.to_vec()));
            })
            .unwrap();
        (run, seen)
    }

    /// A `Double` reader computes exactly the chunks a `Single` one does
    /// and prices the same loads; only the makespan differs.
    #[test]
    fn prefetching_reader_matches_synchronous_reader() {
        let keys: Vec<u32> = (0..64).rev().collect();
        let ends = unit_ends(64);
        let (sync_run, sync_seen) = deliveries(PipelineMode::Single, 8, &keys, &ends);
        let (pre_run, pre_seen) = deliveries(PipelineMode::Double, 8, &keys, &ends);
        assert_eq!(sync_seen, pre_seen, "prefetching changed the chunks");
        assert_eq!(pre_run.chunks, sync_run.chunks);
        assert_eq!(pre_run.load, sync_run.load);
        assert_eq!(sync_run.total, sync_run.load + sync_run.compute);
        assert_eq!(sync_run.hidden(), 0.0);
        assert!(pre_run.total <= pre_run.load + pre_run.compute + 1e-12);
        assert!(pre_run.hidden() <= pre_run.load.min(pre_run.compute) + 1e-12);
    }

    #[test]
    fn prefetching_reader_is_reusable_across_passes() {
        let cost = test_cost(4);
        let keys: Vec<u32> = (0..32).collect();
        let mut reader = ChunkReader::new(4, PipelineMode::Double);
        let mut runs = Vec::new();
        for _ in 0..5 {
            let mut sum = 0u64;
            let run = reader
                .run(&cost, 0, &keys, &unit_ends(32), |_, ks| {
                    sum += ks.iter().map(|&k| u64::from(k)).sum::<u64>();
                })
                .unwrap();
            runs.push((sum, run.chunks, run.load));
        }
        assert!(runs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn prefetching_reader_segments_match_synchronous() {
        let keys: Vec<u32> = (0..20).collect();
        let ends = [7usize, 9, 14, 20];
        let (sync_run, sync_seen) = deliveries(PipelineMode::Single, 1, &keys, &ends);
        let (pre_run, pre_seen) = deliveries(PipelineMode::Double, 1, &keys, &ends);
        assert_eq!(sync_seen, pre_seen);
        assert_eq!((sync_run.chunks, pre_run.chunks), (4, 4));
        assert_eq!(pre_run.load, sync_run.load);
    }

    /// A bad key in a later chunk fails the pass after the earlier chunks
    /// were computed on, and the reader works on the next pass.
    #[test]
    fn prefetching_reader_propagates_background_load_errors() {
        let cost = test_cost(2);
        // Chunk 0 is valid; chunk 1 contains an out-of-range key.
        let keys: Vec<u32> = vec![0, 1, 1000, 1001];
        let mut reader = ChunkReader::new(2, PipelineMode::Double);
        let mut computed = Vec::new();
        let err = reader
            .run(&cost, 0, &keys, &unit_ends(4), |items, _| {
                computed.push(items.start)
            })
            .unwrap_err();
        assert!(matches!(err, DkvError::KeyOutOfRange { .. }));
        assert_eq!(computed, vec![0]);
        let ok_keys: Vec<u32> = (0..8).collect();
        reader
            .run(&cost, 0, &ok_keys, &unit_ends(8), |_, _| {})
            .unwrap();
    }

    #[test]
    fn prefetching_reader_survives_compute_panic() {
        let cost = test_cost(2);
        let keys: Vec<u32> = (0..16).collect();
        let ends = unit_ends(16);
        let mut reader = ChunkReader::new(4, PipelineMode::Double);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = reader.run(&cost, 0, &keys, &ends, |items, _| {
                if items.start >= 4 {
                    panic!("compute boom");
                }
            });
        }))
        .expect_err("compute panic must propagate");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"compute boom"));
        // The reader still works after the unwind.
        let mut count = 0;
        reader
            .run(&cost, 0, &keys, &ends, |_, _| count += 1)
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
