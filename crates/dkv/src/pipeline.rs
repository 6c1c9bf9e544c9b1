//! Double-buffered (pipelined) chunked reads.
//!
//! Loading `pi` from the DKV store dominates `update_phi` (Table III: 205
//! of 285 ms). The paper hides that latency by splitting the load into
//! chunks and fetching chunk `i+1` while computing on chunk `i` (§III-D).
//! This module provides both the *model* and the *mechanism*:
//!
//! * [`schedule`] — the pure timing algebra of a two-stage pipeline, used
//!   by the simulator and verified against hand-computed cases,
//! * [`ChunkReader`] — the one loader, constructed from a
//!   [`PipelineMode`]. `Single` reads each chunk, then computes on it.
//!   `Double` is the real pipeline: two pre-sized row buffers ping-pong,
//!   and while the compute callback runs on buffer A's chunk a
//!   [`BackgroundWorker`] fills buffer B from the store. Either way a
//!   pass returns one [`PipelineRun`]: loads priced with the store's cost
//!   model, computes measured, the makespan *modeled* under the reader's
//!   mode (so netsim figures stay comparable) next to the *measured*
//!   wall-clock of the pass.
//!
//! Numerics are identical across modes: chunk boundaries and delivery
//! order never change, only *when* the bytes are copied. The reader
//! borrows its buffers from a caller-owned [`ReaderScratch`] so
//! steady-state operation performs no heap allocation (pinned by
//! `crates/core/tests/zero_alloc.rs`).

use crate::{DkvError, DkvStore, ShardedStore};
use mmsb_netsim::NetworkModel;
use mmsb_pool::BackgroundWorker;
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
    /// Measured wall-clock of the whole pass, in seconds — under
    /// [`PipelineMode::Double`] with the loads genuinely hidden behind
    /// the computes.
    pub wall: f64,
}

/// Reusable buffers for [`ChunkReader`].
///
/// Owns the ping-pong row buffers, the per-chunk timing vectors and the
/// chunk-boundary table. All storage grows to the high-water mark on
/// first use and is reused afterwards, so a warmed reader performs zero
/// heap allocations per pass.
#[derive(Debug, Default)]
pub struct ReaderScratch {
    /// Ping-pong row buffers; [`PipelineMode::Single`] uses only `bufs[0]`.
    bufs: [Vec<f32>; 2],
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

/// Waits out an in-flight background load if the compute callback panics,
/// so the task's borrows (the back buffer, the key slice) are never
/// outlived. Disarmed with `mem::forget` on the normal path, where
/// [`BackgroundWorker::join`] is called explicitly to re-throw worker
/// panics.
struct WaitGuard<'a>(&'a BackgroundWorker);

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        // `wait`, not `join`: re-throwing here would double-panic.
        let _ = self.0.wait();
    }
}

/// The chunked `pi` loader over a [`ShardedStore`].
///
/// Under [`PipelineMode::Single`] each chunk is read, then computed on.
/// Under [`PipelineMode::Double`] two pre-sized row buffers ping-pong:
/// while the compute callback runs on the front buffer's chunk, a
/// persistent [`BackgroundWorker`] (owned by the reader, spawned at
/// construction) fills the back buffer with chunk `i + 1`'s rows. The
/// handoff protocol is strict `spawn`/`join` alternation — exactly one
/// load in flight, the buffers swap only after the join — so delivery
/// order, chunk contents, and therefore all downstream numerics are
/// identical in both modes.
#[derive(Debug)]
pub struct ChunkReader {
    chunk_size: usize,
    compute_scale: f64,
    /// The prefetch thread; `Some` exactly in [`PipelineMode::Double`].
    worker: Option<BackgroundWorker>,
}

impl ChunkReader {
    /// Create a reader with the given chunk size and mode (spawning the
    /// prefetch worker under [`PipelineMode::Double`]).
    ///
    /// # Panics
    /// Panics if `chunk_size == 0`.
    pub fn new(chunk_size: usize, mode: PipelineMode) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        Self {
            chunk_size,
            compute_scale: 1.0,
            worker: match mode {
                PipelineMode::Single => None,
                PipelineMode::Double => Some(BackgroundWorker::new("dkv-prefetch")),
            },
        }
    }

    /// Multiply measured per-chunk compute times by `scale` before they
    /// enter the *modeled* makespan — the hook for per-node
    /// thread-parallelism models that shrink the serial measurement (the
    /// measured wall-clock is reported unscaled).
    pub fn with_compute_scale(mut self, scale: f64) -> Self {
        self.compute_scale = scale;
        self
    }

    /// The mode the reader was constructed in.
    fn mode(&self) -> PipelineMode {
        match self.worker {
            None => PipelineMode::Single,
            Some(_) => PipelineMode::Double,
        }
    }

    /// Read `keys` in chunks of the configured size from `store` as rank
    /// `rank`, invoking `compute(chunk_start, chunk_keys, rows)` on each
    /// chunk's rows.
    ///
    /// Loads are priced with [`ShardedStore::read_cost`]; computes are
    /// measured with a monotonic clock. Under [`PipelineMode::Double`]
    /// chunk `0` is loaded synchronously; from then on chunk `i + 1`
    /// loads on the background worker while `compute` runs on chunk `i`.
    pub fn run<F>(
        &mut self,
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
        &mut self,
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
        &mut self,
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
        let max_chunk = scratch.max_chunk_keys();
        let ReaderScratch {
            bufs,
            loads,
            computes,
            ends,
        } = scratch;
        loads.clear();
        computes.clear();
        let (front_buf, back_buf) = bufs.split_at_mut(1);
        let mut front: &mut Vec<f32> = &mut front_buf[0];
        let mut back: &mut Vec<f32> = &mut back_buf[0];
        if front.len() < max_chunk * row_len {
            front.resize(max_chunk * row_len, 0.0);
        }

        let wall0 = Stopwatch::start();
        let mut start = 0;
        match &self.worker {
            None => {
                for &end in ends.iter() {
                    let chunk = &keys[start..end];
                    let rows = &mut front[..chunk.len() * row_len];
                    store.read_batch(chunk, rows)?;
                    loads.push(store.read_cost(rank, chunk, net));
                    let t0 = Stopwatch::start();
                    compute(start, chunk, rows);
                    computes.push(t0.elapsed_secs() * self.compute_scale);
                    start = end;
                }
            }
            Some(worker) => {
                if back.len() < max_chunk * row_len {
                    back.resize(max_chunk * row_len, 0.0);
                }
                // Chunk 0 has nothing to hide behind: load it
                // synchronously.
                if let Some(&first_end) = ends.first() {
                    let first = &keys[..first_end];
                    store.read_batch(first, &mut front[..first.len() * row_len])?;
                    loads.push(store.read_cost(rank, first, net));
                }
                for (ci, &end) in ends.iter().enumerate() {
                    let chunk = &keys[start..end];
                    let mut prefetch_result: Result<(), DkvError> = Ok(());
                    {
                        // Publish the next chunk's load before computing
                        // on the current one. The closure borrows `back`,
                        // `keys`, and `prefetch_result`; all outlive the
                        // join below (and the WaitGuard covers a
                        // panicking compute callback).
                        let mut slot = if let Some(&next_end) = ends.get(ci + 1) {
                            let next_chunk = &keys[end..next_end];
                            loads.push(store.read_cost(rank, next_chunk, net));
                            let dst = &mut back[..next_chunk.len() * row_len];
                            let result = &mut prefetch_result;
                            Some(move || {
                                *result = store.read_batch(next_chunk, dst);
                            })
                        } else {
                            None
                        };
                        if slot.is_some() {
                            // SAFETY: `slot` and everything the closure
                            // borrows live until `join()` below returns;
                            // the WaitGuard waits out the task if
                            // `compute` unwinds first.
                            unsafe { worker.spawn(&mut slot) };
                        }
                        let guard = WaitGuard(worker);
                        let t0 = Stopwatch::start();
                        compute(start, chunk, &front[..chunk.len() * row_len]);
                        computes.push(t0.elapsed_secs() * self.compute_scale);
                        std::mem::forget(guard);
                        worker.join();
                    }
                    prefetch_result?;
                    std::mem::swap(&mut front, &mut back);
                    start = end;
                }
            }
        }
        let wall = wall0.elapsed_secs();
        Ok(PipelineRun {
            total: schedule(loads, computes, self.mode()),
            load: loads.iter().sum(),
            compute: computes.iter().sum(),
            chunks: loads.len(),
            wall,
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
        let mut reader = ChunkReader::new(4, PipelineMode::Double);
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
            let mut reader = ChunkReader::new(8, mode);
            assert_eq!(reader.mode(), mode);
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
            assert!(run.wall > 0.0);
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
        let mut reader = ChunkReader::new(4, PipelineMode::Single);
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
        let mut reader = ChunkReader::new(4, PipelineMode::Single);
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
        let mut reader = ChunkReader::new(8, mode);
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

    #[test]
    fn prefetching_reader_matches_synchronous_reader() {
        let store = test_store(8);
        let keys: Vec<u32> = (0..64).rev().collect();
        let (sync_run, sync_seen) = deliveries(&store, PipelineMode::Single, &keys, None);
        let (pre_run, pre_seen) = deliveries(&store, PipelineMode::Double, &keys, None);
        assert_eq!(sync_seen, pre_seen, "prefetching changed delivered data");
        assert_eq!(pre_run.chunks, sync_run.chunks);
        assert_eq!(pre_run.load, sync_run.load);
        // One result shape: both modes report a measured wall-clock and
        // a makespan modeled under their own mode.
        assert!(pre_run.wall > 0.0 && sync_run.wall > 0.0);
        assert_eq!(sync_run.total, sync_run.load + sync_run.compute);
        assert!(pre_run.total <= pre_run.load + pre_run.compute + 1e-12);
    }

    #[test]
    fn prefetching_reader_is_reusable_across_passes() {
        let store = test_store(4);
        let net = NetworkModel::fdr_infiniband();
        let keys: Vec<u32> = (0..32).collect();
        let mut reader = ChunkReader::new(4, PipelineMode::Double);
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

    #[test]
    fn prefetching_reader_propagates_background_load_errors() {
        let store = test_store(2);
        let net = NetworkModel::fdr_infiniband();
        // Chunk 0 is valid; chunk 1 (prefetched in the background)
        // contains an out-of-range key.
        let keys: Vec<u32> = vec![0, 1, 1000, 1001];
        let mut reader = ChunkReader::new(2, PipelineMode::Double);
        let mut scratch = ReaderScratch::new();
        let err = reader
            .run(&store, 0, &keys, &net, &mut scratch, |_, _, _| {})
            .unwrap_err();
        assert!(matches!(err, DkvError::KeyOutOfRange { .. }));
        // The reader survives the error and works on the next pass.
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
        let mut reader = ChunkReader::new(4, PipelineMode::Double);
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
        // The worker was waited out by the guard; the reader still works.
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
