//! The sharded store, the cost model that prices access to it, and the
//! per-batch instrumentation both share.

use crate::dkv::{DkvError, Partition};
use crate::NetworkModel;
use mmsb_obs::id as obs_id;

/// Per-batch instrumentation of one DKV read or write: bumps the
/// batch/key counters and fills the latency histogram. The store's
/// `read_batch`/`write_batch` hold an [`OpObs::read`]/[`OpObs::write`]
/// guard across the copy, which records the histogram (and a span at
/// spans level) when dropped, covering every return path. The simulated
/// cluster does no I/O to time: it records each access it prices with
/// [`OpObs::priced_read`]/[`OpObs::priced_write`], the modelled seconds
/// in the histogram and no span. Pure atomics — allocation-free, as
/// `crates/core/tests/zero_alloc.rs` verifies.
pub struct OpObs {
    _span: mmsb_obs::Span,
}

impl OpObs {
    /// Open the record of a read of `keys`.
    pub fn read(keys: &[u32]) -> Self {
        count_batch(obs_id::C_DKV_READ_BATCHES, obs_id::C_DKV_READ_KEYS, keys);
        Self {
            _span: mmsb_obs::timed_span(obs_id::S_DKV_READ, obs_id::H_DKV_READ_NS),
        }
    }

    /// Open the record of a write of `keys`.
    pub fn write(keys: &[u32]) -> Self {
        count_batch(obs_id::C_DKV_WRITE_BATCHES, obs_id::C_DKV_WRITE_KEYS, keys);
        Self {
            _span: mmsb_obs::timed_span(obs_id::S_DKV_WRITE, obs_id::H_DKV_WRITE_NS),
        }
    }

    /// Record a read of `keys` that the simulated cluster priced at
    /// `secs` of modelled time.
    pub fn priced_read(keys: &[u32], secs: f64) {
        count_batch(obs_id::C_DKV_READ_BATCHES, obs_id::C_DKV_READ_KEYS, keys);
        mmsb_obs::hist_record_secs(obs_id::H_DKV_READ_NS, secs);
    }

    /// Record a write of `keys` that the simulated cluster priced at
    /// `secs` of modelled time.
    pub fn priced_write(keys: &[u32], secs: f64) {
        count_batch(obs_id::C_DKV_WRITE_BATCHES, obs_id::C_DKV_WRITE_KEYS, keys);
        mmsb_obs::hist_record_secs(obs_id::H_DKV_WRITE_NS, secs);
    }
}

/// Bump the batch counter `batches` once and the key counter `key_count`
/// by the batch's keys.
fn count_batch(batches: usize, key_count: usize, keys: &[u32]) {
    mmsb_obs::counter_add(batches, 1);
    mmsb_obs::counter_add(key_count, keys.len() as u64);
}

/// The store interface: batched reads and writes of fixed-size `f32` rows.
///
/// Contract (mirrors the paper's §III-B):
/// * the key set is static — `num_keys` rows exist from construction,
/// * all rows have the same length `row_len`,
/// * a write batch never contains the same key twice (stages are
///   barrier-separated and updates target unique vertices), which the
///   implementations *verify* rather than trust.
pub trait DkvStore {
    /// Number of keys (rows) in the store.
    fn num_keys(&self) -> u32;

    /// Elements per row (`K + 1` in the sampler: `pi` plus `sum(phi)`).
    fn row_len(&self) -> usize;

    /// Read the rows for `keys` into `out` (concatenated, in key order).
    fn read_batch(&self, keys: &[u32], out: &mut [f32]) -> Result<(), DkvError>;

    /// Write the rows for `keys` from `vals` (concatenated, in key order).
    fn write_batch(&mut self, keys: &[u32], vals: &[f32]) -> Result<(), DkvError>;

    /// Convenience: read one row into a fresh vector.
    fn read_row(&self, key: u32) -> Result<Vec<f32>, DkvError> {
        let mut out = vec![0.0; self.row_len()];
        self.read_batch(&[key], &mut out)?;
        Ok(out)
    }
}

/// Reject the first key outside `[0, num_keys)`.
pub(crate) fn check_keys(num_keys: u32, keys: &[u32]) -> Result<(), DkvError> {
    match keys.iter().find(|&&k| k >= num_keys) {
        Some(&key) => Err(DkvError::KeyOutOfRange { key, num_keys }),
        None => Ok(()),
    }
}

fn validate_batch(
    num_keys: u32,
    row_len: usize,
    keys: &[u32],
    buf_len: usize,
) -> Result<(), DkvError> {
    check_keys(num_keys, keys)?;
    let expected = keys.len() * row_len;
    if buf_len != expected {
        return Err(DkvError::BufferSizeMismatch {
            expected,
            got: buf_len,
        });
    }
    Ok(())
}

/// Duplicate detection via a caller-provided scratch buffer: the keys are
/// copied into `scratch` and sorted there, so steady-state write batches
/// perform no allocation once the scratch has grown to the largest batch
/// seen (pinned by `crates/core/tests/zero_alloc.rs`).
fn check_no_duplicates(keys: &[u32], scratch: &mut Vec<u32>) -> Result<(), DkvError> {
    scratch.clear();
    scratch.extend_from_slice(keys);
    scratch.sort_unstable();
    for w in scratch.windows(2) {
        if w[0] == w[1] {
            return Err(DkvError::DuplicateKeyInWrite { key: w[0] });
        }
    }
    Ok(())
}

/// The modeled RDMA time of batched access to rows of `row_len` floats
/// spread over a [`Partition`]: what a physical cluster would spend on
/// the wire. It needs no populated store — the simulated cluster reads
/// and writes the master's state and charges each access to the rank's
/// virtual clock at this price.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    partition: Partition,
    row_bytes: usize,
    net: NetworkModel,
}

impl CostModel {
    /// Per-core streaming memory bandwidth (bytes/s) used to price the
    /// `1/C` of accesses that do not cross the wire: ~12 GB/s, a Xeon
    /// E5-2630v3-era figure.
    const LOCAL_BANDWIDTH: f64 = 12e9;

    /// Price rows of `row_len` floats partitioned by `partition` on
    /// `net`.
    pub fn new(partition: Partition, row_len: usize, net: NetworkModel) -> Self {
        Self {
            partition,
            row_bytes: row_len * std::mem::size_of::<f32>(),
            net,
        }
    }

    /// Modeled time for `reader_rank` to read the given keys in one
    /// batched stage: one round-trip of latency amortized over the batch
    /// (requests are posted back-to-back on the NIC), plus per-request
    /// setup and payload time for remote rows, plus memory-copy time for
    /// local rows.
    pub fn read_cost(&self, reader_rank: usize, keys: &[u32]) -> f64 {
        self.batch_cost(reader_rank, keys, /*is_read=*/ true)
    }

    /// Modeled time for `writer_rank` to write the given keys in one
    /// batched stage (posted writes: no response round trip).
    pub fn write_cost(&self, writer_rank: usize, keys: &[u32]) -> f64 {
        self.batch_cost(writer_rank, keys, /*is_read=*/ false)
    }

    fn batch_cost(&self, rank: usize, keys: &[u32], is_read: bool) -> f64 {
        let bytes = self.row_bytes;
        let net = &self.net;
        let mut remote = 0usize;
        let mut local = 0usize;
        for &k in keys {
            if self.partition.owner(k) == rank {
                local += 1;
            } else {
                remote += 1;
            }
        }
        let mut t = local as f64 * bytes as f64 / Self::LOCAL_BANDWIDTH;
        if remote > 0 {
            // One latency (round trip for reads) for the batch; the
            // requests are posted back-to-back, and work-request posting
            // overlaps the NIC's DMA transfers, so the steady-state batch
            // cost is the larger of the posting time and the wire time.
            let lat = if is_read {
                2.0 * net.latency
            } else {
                net.latency
            };
            let posting = remote as f64 * net.rdma_setup;
            let wire = remote as f64 * bytes as f64 / net.bandwidth;
            t += lat + posting.max(wire);
        }
        t
    }
}

/// Sharded store: rows live in per-rank shards according to a static
/// [`Partition`], and reads and writes move real bytes. The sampler does
/// not hold one — it prices access to its own state with [`CostModel`];
/// the store's request path is what the benchmark's `dkv.read_batch_us`
/// probe measures, and tests are its only other callers.
#[derive(Debug, Clone)]
pub struct ShardedStore {
    shards: Vec<Vec<f32>>,
    partition: Partition,
    row_len: usize,
    dup_scratch: Vec<u32>,
}

impl ShardedStore {
    /// Create a zero-initialized sharded store.
    pub fn new(partition: Partition, row_len: usize) -> Self {
        assert!(row_len > 0, "rows must have at least one element");
        let shards = (0..partition.ranks())
            .map(|r| vec![0.0; partition.shard_size(r) * row_len])
            .collect();
        Self {
            shards,
            partition,
            row_len,
            dup_scratch: Vec::new(),
        }
    }
}

impl DkvStore for ShardedStore {
    fn num_keys(&self) -> u32 {
        self.partition.num_keys()
    }

    fn row_len(&self) -> usize {
        self.row_len
    }

    fn read_batch(&self, keys: &[u32], out: &mut [f32]) -> Result<(), DkvError> {
        let _obs = OpObs::read(keys);
        validate_batch(self.num_keys(), self.row_len, keys, out.len())?;
        for (i, &k) in keys.iter().enumerate() {
            let shard = &self.shards[self.partition.owner(k)];
            let src = self.partition.local_index(k) * self.row_len;
            out[i * self.row_len..(i + 1) * self.row_len]
                .copy_from_slice(&shard[src..src + self.row_len]);
        }
        Ok(())
    }

    fn write_batch(&mut self, keys: &[u32], vals: &[f32]) -> Result<(), DkvError> {
        let _obs = OpObs::write(keys);
        validate_batch(self.num_keys(), self.row_len, keys, vals.len())?;
        check_no_duplicates(keys, &mut self.dup_scratch)?;
        for (i, &k) in keys.iter().enumerate() {
            let owner = self.partition.owner(k);
            let dst = self.partition.local_index(k) * self.row_len;
            self.shards[owner][dst..dst + self.row_len]
                .copy_from_slice(&vals[i * self.row_len..(i + 1) * self.row_len]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmsb_rand::{Rng, Xoshiro256PlusPlus};

    /// Single-node store: one contiguous array — the reference
    /// [`ShardedStore`] is compared against (`sharded_matches_local`).
    #[derive(Debug, Clone)]
    struct LocalStore {
        rows: Vec<f32>,
        num_keys: u32,
        row_len: usize,
        dup_scratch: Vec<u32>,
    }

    impl LocalStore {
        /// Create a zero-initialized store.
        fn new(num_keys: u32, row_len: usize) -> Self {
            assert!(row_len > 0, "rows must have at least one element");
            Self {
                rows: vec![0.0; num_keys as usize * row_len],
                num_keys,
                row_len,
                dup_scratch: Vec::new(),
            }
        }

        /// Borrow one row immutably (zero-copy fast path for local access).
        fn row(&self, key: u32) -> &[f32] {
            let i = key as usize * self.row_len;
            &self.rows[i..i + self.row_len]
        }

        /// Borrow one row mutably.
        fn row_mut(&mut self, key: u32) -> &mut [f32] {
            let i = key as usize * self.row_len;
            &mut self.rows[i..i + self.row_len]
        }
    }

    impl DkvStore for LocalStore {
        fn num_keys(&self) -> u32 {
            self.num_keys
        }

        fn row_len(&self) -> usize {
            self.row_len
        }

        fn read_batch(&self, keys: &[u32], out: &mut [f32]) -> Result<(), DkvError> {
            let _obs = OpObs::read(keys);
            validate_batch(self.num_keys, self.row_len, keys, out.len())?;
            for (i, &k) in keys.iter().enumerate() {
                let src = k as usize * self.row_len;
                out[i * self.row_len..(i + 1) * self.row_len]
                    .copy_from_slice(&self.rows[src..src + self.row_len]);
            }
            Ok(())
        }

        fn write_batch(&mut self, keys: &[u32], vals: &[f32]) -> Result<(), DkvError> {
            let _obs = OpObs::write(keys);
            validate_batch(self.num_keys, self.row_len, keys, vals.len())?;
            check_no_duplicates(keys, &mut self.dup_scratch)?;
            for (i, &k) in keys.iter().enumerate() {
                let dst = k as usize * self.row_len;
                self.rows[dst..dst + self.row_len]
                    .copy_from_slice(&vals[i * self.row_len..(i + 1) * self.row_len]);
            }
            Ok(())
        }
    }

    fn write_rows<S: DkvStore>(store: &mut S, keys: &[u32]) {
        let row_len = store.row_len();
        let vals: Vec<f32> = keys
            .iter()
            .flat_map(|&k| (0..row_len).map(move |j| (k * 100 + j as u32) as f32))
            .collect();
        store.write_batch(keys, &vals).unwrap();
    }

    #[test]
    fn local_store_roundtrip() {
        let mut s = LocalStore::new(10, 3);
        write_rows(&mut s, &[2, 5, 9]);
        assert_eq!(s.read_row(5).unwrap(), vec![500.0, 501.0, 502.0]);
        assert_eq!(s.row(2), &[200.0, 201.0, 202.0]);
        s.row_mut(2)[0] = -1.0;
        assert_eq!(s.read_row(2).unwrap()[0], -1.0);
    }

    #[test]
    fn sharded_store_roundtrip_many_ranks() {
        for ranks in [1usize, 2, 7, 64] {
            let mut s = ShardedStore::new(Partition::new(100, ranks), 4);
            let keys: Vec<u32> = (0..100).collect();
            write_rows(&mut s, &keys);
            let mut out = vec![0.0; 100 * 4];
            s.read_batch(&keys, &mut out).unwrap();
            for (i, &k) in keys.iter().enumerate() {
                assert_eq!(out[i * 4], (k * 100) as f32, "ranks={ranks} key={k}");
            }
        }
    }

    #[test]
    fn key_out_of_range_rejected() {
        let s = LocalStore::new(5, 2);
        let mut out = vec![0.0; 2];
        assert!(matches!(
            s.read_batch(&[5], &mut out),
            Err(DkvError::KeyOutOfRange {
                key: 5,
                num_keys: 5
            })
        ));
    }

    #[test]
    fn buffer_mismatch_rejected() {
        let s = LocalStore::new(5, 2);
        let mut out = vec![0.0; 3];
        assert!(matches!(
            s.read_batch(&[0], &mut out),
            Err(DkvError::BufferSizeMismatch {
                expected: 2,
                got: 3
            })
        ));
    }

    #[test]
    fn duplicate_write_rejected() {
        let mut s = LocalStore::new(5, 1);
        assert!(matches!(
            s.write_batch(&[1, 1], &[0.0, 0.0]),
            Err(DkvError::DuplicateKeyInWrite { key: 1 })
        ));
        // Duplicate *reads* are fine (two neighbors of the same vertex).
        let mut out = vec![0.0; 2];
        s.read_batch(&[1, 1], &mut out).unwrap();
    }

    #[test]
    fn read_cost_scales_with_remote_fraction() {
        let net = NetworkModel::fdr_infiniband();
        let keys: Vec<u32> = (0..64).collect();
        let single = CostModel::new(Partition::new(64, 1), 16, net);
        let spread = CostModel::new(Partition::new(64, 64), 16, net);
        // With one rank everything is local; with 64 ranks, 63/64 remote.
        let c1 = single.read_cost(0, &keys);
        let c64 = spread.read_cost(0, &keys);
        assert!(c64 > 5.0 * c1, "local {c1} vs spread {c64}");
    }

    #[test]
    fn write_cost_cheaper_than_read_cost() {
        // Posted writes skip the response round trip.
        let s = CostModel::new(Partition::new(64, 8), 16, NetworkModel::fdr_infiniband());
        let keys: Vec<u32> = (0..8).collect();
        assert!(s.write_cost(0, &keys) < s.read_cost(0, &keys));
    }

    #[test]
    fn cost_zero_on_ideal_network_except_local_copies() {
        let s = CostModel::new(Partition::new(16, 4), 8, NetworkModel::ideal());
        let keys: Vec<u32> = (0..16).collect();
        let c = s.read_cost(0, &keys);
        assert!(c < 1e-6, "cost {c}");
    }

    /// Sharded and local stores are observationally identical. Checked
    /// over 64 random write sequences and rank counts.
    #[test]
    fn sharded_matches_local() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xD3);
        for case in 0..64 {
            let ranks = 1 + rng.below(8) as usize;
            let n_writes = 1 + rng.below(59) as usize;
            let mut local = LocalStore::new(30, 2);
            let mut sharded = ShardedStore::new(Partition::new(30, ranks), 2);
            // Apply writes one key at a time (duplicates across batches ok).
            for _ in 0..n_writes {
                let k = rng.below(30) as u32;
                let v = (rng.next_f64() * 200.0 - 100.0) as f32;
                let row = [v, v + 1.0];
                local.write_batch(&[k], &row).unwrap();
                sharded.write_batch(&[k], &row).unwrap();
            }
            let keys: Vec<u32> = (0..30).collect();
            let mut a = vec![0.0; 60];
            let mut b = vec![0.0; 60];
            local.read_batch(&keys, &mut a).unwrap();
            sharded.read_batch(&keys, &mut b).unwrap();
            assert_eq!(a, b, "case {case} (ranks={ranks})");
        }
    }
}
