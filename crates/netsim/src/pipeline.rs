//! The price of a chunked, pipelined `pi` load.
//!
//! Loading `pi` from the DKV store dominates `update_phi` (Table III: 205
//! of 285 ms). The paper hides that latency by splitting the load into
//! chunks and fetching chunk `i+1` while computing on chunk `i` (§III-D).
//! The simulated cluster reads `pi` from the master's state and computes
//! its `phi` rows before it prices them, so this module *models* the
//! load and the overlap rather than executing them: [`price`] walks the
//! chunks of a rank's keys, charges each chunk's load by the
//! [`CostModel`] and its compute per key it delivers, and folds the
//! makespan of the pass under a [`PipelineMode`] — `Single` pays every
//! load, `Double` only the part the previous chunk's compute cannot hide.
//!
//! Nothing runs inside it. The mode changes nothing but the price, so the
//! chain is the same in both; no clock is read, so a pass's price depends
//! on its keys alone — not on the host or on what else runs beside it;
//! and it owns no buffers, so it allocates nothing.

use crate::dkv::{CostModel, OpObs};

/// Buffering mode of the modelled `pi` load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineMode {
    /// Load a chunk, compute on it, repeat — no overlap.
    Single,
    /// Double buffering: load of chunk `i+1` overlaps compute on chunk `i`.
    Double,
}

/// The price of one chunked load–compute pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineRun {
    /// Modeled makespan in seconds under the pass's mode.
    pub total: f64,
    /// Sum of modeled load (DKV read) times.
    pub load: f64,
    /// Sum of priced compute times.
    pub compute: f64,
    /// Number of chunks priced.
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

/// Price rank `rank`'s pass over `keys`, where item `i` owns
/// `keys[ends[i - 1]..ends[i]]` (`ends` is non-decreasing and ends at
/// `keys.len()`). Items are grouped into chunks of `chunk_items`; each
/// chunk's keys are priced with [`CostModel::read_cost`] and recorded as
/// one DKV read at that price ([`OpObs::priced_read`]), and its compute is `key_secs` per key. The
/// makespan is, with `compute_{-1} = 0`:
///
/// * `Single`: `Σ (load_i + compute_i)`;
/// * `Double`: `Σ max(load_i, compute_{i-1}) + compute_{n-1}` — each
///   load after the first hides behind the previous chunk's compute (or
///   vice versa).
///
/// # Panics
/// Panics if `chunk_items == 0` or `ends` does not end at `keys.len()`.
pub fn price(
    cost: &CostModel,
    rank: usize,
    keys: &[u32],
    ends: &[usize],
    chunk_items: usize,
    mode: PipelineMode,
    key_secs: f64,
) -> PipelineRun {
    let mut run = PipelineRun::default();
    let mut overlapped = 0.0;
    let mut last_compute = 0.0;
    for (load, compute) in chunk_prices(cost, rank, keys, ends, chunk_items, key_secs) {
        run.load += load;
        run.compute += compute;
        run.chunks += 1;
        overlapped += load.max(last_compute);
        last_compute = compute;
    }
    run.total = match mode {
        PipelineMode::Single => run.load + run.compute,
        PipelineMode::Double => overlapped + last_compute,
    };
    run
}

/// Each chunk's `(load, compute)` price, in chunk order (see [`price`]).
fn chunk_prices<'a>(
    cost: &'a CostModel,
    rank: usize,
    keys: &'a [u32],
    ends: &'a [usize],
    chunk_items: usize,
    key_secs: f64,
) -> impl Iterator<Item = (f64, f64)> + 'a {
    assert!(chunk_items > 0, "chunk size must be positive");
    assert_eq!(
        ends.last().copied().unwrap_or(0),
        keys.len(),
        "item ends must cover the key slice exactly"
    );
    let mut start = 0;
    ends.chunks(chunk_items).map(move |chunk_ends| {
        let end = chunk_ends[chunk_ends.len() - 1];
        let chunk = &keys[start..end];
        start = end;
        let load = cost.read_cost(rank, chunk);
        OpObs::priced_read(chunk, load);
        (load, chunk.len() as f64 * key_secs)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dkv::Partition;
    use crate::NetworkModel;
    use mmsb_rand::{Rng, Xoshiro256PlusPlus};

    /// Makespan of a two-stage pipeline with per-chunk `loads` and
    /// `computes`, from whole vectors — the oracle [`price`] folds:
    /// `Single` = `Σ (load_i + compute_i)`, `Double` = `load_0 +
    /// Σ_{i=1..n-1} max(load_i, compute_{i-1}) + compute_{n-1}`.
    fn schedule(loads: &[f64], computes: &[f64], mode: PipelineMode) -> f64 {
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

    const MODES: [PipelineMode; 2] = [PipelineMode::Single, PipelineMode::Double];

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

    /// The per-chunk loads of a pass, as [`price`] charges them.
    fn loads(cost: &CostModel, keys: &[u32], ends: &[usize], chunk: usize) -> Vec<f64> {
        chunk_prices(cost, 0, keys, ends, chunk, 0.0)
            .map(|(load, _)| load)
            .collect()
    }

    #[test]
    fn reader_visits_all_chunks_in_order() {
        let cost = test_cost(4);
        let keys: Vec<u32> = (0..10).collect();
        // 4 + 4 + 2 items.
        let expected: Vec<f64> = [&keys[0..4], &keys[4..8], &keys[8..10]]
            .iter()
            .map(|chunk| cost.read_cost(0, chunk))
            .collect();
        assert_eq!(loads(&cost, &keys, &unit_ends(10), 4), expected);
    }

    #[test]
    fn reader_modes_have_identical_data_different_time() {
        let cost = test_cost(8);
        let keys: Vec<u32> = (0..64).collect();
        let runs = MODES.map(|mode| price(&cost, 0, &keys, &unit_ends(64), 8, mode, 1e-6));
        for (run, mode) in runs.iter().zip(MODES) {
            assert!(run.total > 0.0);
            assert!(run.load > 0.0);
            assert!((run.compute - 64e-6).abs() < 1e-15, "{}", run.compute);
            // Only Double hides load time behind compute.
            assert_eq!(run.hidden() > 0.0, mode == PipelineMode::Double, "{mode:?}");
        }
        assert_eq!(
            (runs[0].load, runs[0].chunks),
            (runs[1].load, runs[1].chunks)
        );
    }

    #[test]
    fn reader_segments_follow_caller_boundaries() {
        // Items own 3, 1 and 6 keys; one item per chunk.
        let cost = test_cost(4);
        let keys: Vec<u32> = (0..10).collect();
        let expected: Vec<f64> = [&keys[0..3], &keys[3..4], &keys[4..10]]
            .iter()
            .map(|chunk| cost.read_cost(0, chunk))
            .collect();
        assert_eq!(loads(&cost, &keys, &[3, 4, 10], 1), expected);
    }

    /// Each chunk's compute is charged per key it delivered: chunks of 3,
    /// 1 and 6 keys cost 3, 1 and 6 key prices.
    #[test]
    fn reader_prices_compute_by_delivered_keys() {
        let cost = test_cost(4);
        let keys: Vec<u32> = (0..10).collect();
        let ends = [3, 4, 10];
        let key_secs = 0.25;
        let computes: Vec<f64> = chunk_prices(&cost, 0, &keys, &ends, 1, key_secs)
            .map(|(_, compute)| compute)
            .collect();
        assert_eq!(computes, [3.0 * key_secs, key_secs, 6.0 * key_secs]);
        let run = price(&cost, 0, &keys, &ends, 1, PipelineMode::Single, key_secs);
        assert_eq!(run.compute, 10.0 * key_secs);
        assert_eq!(run.total, run.load + run.compute);
        let free = price(&cost, 0, &keys, &ends, 1, PipelineMode::Single, 0.0);
        assert_eq!((free.compute, free.load), (0.0, run.load));
    }

    #[test]
    #[should_panic(expected = "cover the key slice")]
    fn reader_segments_must_cover_keys() {
        let cost = test_cost(4);
        price(&cost, 0, &[0, 1, 2], &[2], 4, PipelineMode::Single, 0.0);
    }

    /// `Double` prices exactly the loads `Single` does; only the makespan
    /// differs.
    #[test]
    fn prefetching_reader_matches_synchronous_reader() {
        let cost = test_cost(8);
        let keys: Vec<u32> = (0..64).rev().collect();
        let ends = unit_ends(64);
        let [sync_run, pre_run] = MODES.map(|mode| price(&cost, 0, &keys, &ends, 8, mode, 2e-7));
        assert_eq!(pre_run.chunks, sync_run.chunks);
        assert_eq!(pre_run.load, sync_run.load);
        assert_eq!(sync_run.total, sync_run.load + sync_run.compute);
        assert_eq!(sync_run.hidden(), 0.0);
        assert!(pre_run.total <= pre_run.load + pre_run.compute + 1e-12);
        assert!(pre_run.hidden() <= pre_run.load.min(pre_run.compute) + 1e-12);
    }

    /// `price` keeps no state between passes: the same pass priced five
    /// times gives bit-identical runs.
    #[test]
    fn prefetching_reader_is_reusable_across_passes() {
        let cost = test_cost(4);
        let keys: Vec<u32> = (0..32).collect();
        let ends = unit_ends(32);
        let pass = || price(&cost, 0, &keys, &ends, 4, PipelineMode::Double, 1e-7);
        let first = pass();
        assert!((0..4).all(|_| pass() == first));
    }

    #[test]
    fn prefetching_reader_segments_match_synchronous() {
        let cost = test_cost(8);
        let keys: Vec<u32> = (0..20).collect();
        let ends = [7usize, 9, 14, 20];
        let [sync_run, pre_run] = MODES.map(|mode| price(&cost, 0, &keys, &ends, 1, mode, 2e-7));
        assert_eq!((sync_run.chunks, pre_run.chunks), (4, 4));
        assert_eq!(pre_run.load, sync_run.load);
    }

    /// Over 128 random profiles — item key counts, keys spread over 1–8
    /// ranks, chunk sizes — in both modes: each chunk's load is the read
    /// price of exactly that chunk's keys and its compute its key count
    /// × the price; `total` is bit-equal to the [`schedule`] oracle, and
    /// `load` / `compute` / `chunks` to their sums and count, equal in
    /// both modes.
    #[test]
    fn price_matches_the_schedule_oracle() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x9E1);
        for case in 0..128 {
            let ranks = 1 + rng.below(8) as usize;
            let cost = test_cost(ranks);
            let rank = rng.below(ranks as u64) as usize;
            let items = rng.below(25) as usize;
            let mut keys = Vec::new();
            let mut ends = Vec::new();
            for _ in 0..items {
                for _ in 0..1 + rng.below(12) {
                    keys.push(rng.below(64) as u32);
                }
                ends.push(keys.len());
            }
            let key_secs = rng.next_f64() * 1e-6;
            for chunk in [1, 2, 3, 8, 1 + rng.below(30) as usize] {
                // The chunks, segmented independently of `price`.
                let expected: Vec<(f64, f64)> = (0..items)
                    .step_by(chunk)
                    .map(|lo| {
                        let hi = (lo + chunk).min(items);
                        let first = if lo == 0 { 0 } else { ends[lo - 1] };
                        let chunk_keys = &keys[first..ends[hi - 1]];
                        let compute = chunk_keys.len() as f64 * key_secs;
                        (cost.read_cost(rank, chunk_keys), compute)
                    })
                    .collect();
                let priced: Vec<(f64, f64)> =
                    chunk_prices(&cost, rank, &keys, &ends, chunk, key_secs).collect();
                assert_eq!(priced, expected, "case {case}, chunk {chunk}");
                let (loads, computes): (Vec<f64>, Vec<f64>) = expected.into_iter().unzip();
                let runs = MODES.map(|mode| {
                    let run = price(&cost, rank, &keys, &ends, chunk, mode, key_secs);
                    let oracle = schedule(&loads, &computes, mode);
                    assert_eq!(
                        run.total.to_bits(),
                        oracle.to_bits(),
                        "case {case} {mode:?}"
                    );
                    assert_eq!(run.load, loads.iter().sum::<f64>(), "case {case} {mode:?}");
                    assert_eq!(run.compute, computes.iter().sum::<f64>(), "case {case}");
                    assert_eq!(run.chunks, loads.len(), "case {case} {mode:?}");
                    run
                });
                assert_eq!(
                    runs[0].load.to_bits(),
                    runs[1].load.to_bits(),
                    "case {case}"
                );
                assert_eq!(runs[0].compute.to_bits(), runs[1].compute.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn zero_chunk_panics() {
        price(&test_cost(4), 0, &[0], &[1], 0, PipelineMode::Single, 0.0);
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn zero_chunk_prefetch_panics() {
        price(&test_cost(4), 0, &[0], &[1], 0, PipelineMode::Double, 0.0);
    }
}
