//! The paper's RDMA key-value store for the sampler's `pi` state (§III-B),
//! as a price: a static key set (one key per vertex), fixed-size rows
//! (`K + 1` floats: the `pi` row plus `sum(phi)`) and barrier-separated
//! stages whose writes target unique keys, so every operation is one RDMA
//! read or write with no concurrency control.
//!
//! * [`Partition`] — the static key-to-owner mapping;
//! * [`CostModel`] — the modeled RDMA time of a batched read or write
//!   from a given rank; it needs no populated store;
//! * [`OpObs`] — the counters, latency histogram and span of one access;
//! * [`price`] — the chunked `pi` load, each chunk's load by the
//!   [`CostModel`] and its compute per key, folded under a
//!   [`PipelineMode`] (paper §III-D, Figure 3, Table III);
//! * [`ShardedStore`] behind [`DkvStore`] — per-rank shards that move
//!   real bytes: what the benchmark's `dkv.read_batch_us` probe measures.
//!
//! [`crate::ClusterModel`] prices every DKV access of a recorded step
//! against the sampler's one copy of `pi`; `fig5_dkv_bandwidth` prices
//! its reads the same way.

pub use crate::partition::Partition;
pub use crate::pipeline::{price, PipelineMode, PipelineRun};
pub use crate::store::{CostModel, DkvStore, OpObs, ShardedStore};

/// Errors from store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DkvError {
    /// A key outside `[0, num_keys)`.
    KeyOutOfRange {
        /// The offending key.
        key: u32,
        /// Total number of keys.
        num_keys: u32,
    },
    /// An output or input buffer whose length is not
    /// `keys.len() * row_len`.
    BufferSizeMismatch {
        /// Expected element count.
        expected: usize,
        /// Provided element count.
        got: usize,
    },
    /// A write batch containing the same key twice — forbidden by the
    /// store's no-write-hazard contract.
    DuplicateKeyInWrite {
        /// The duplicated key.
        key: u32,
    },
}

impl std::fmt::Display for DkvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DkvError::KeyOutOfRange { key, num_keys } => {
                write!(f, "key {key} out of range (store holds {num_keys})")
            }
            DkvError::BufferSizeMismatch { expected, got } => {
                write!(f, "buffer holds {got} elements, expected {expected}")
            }
            DkvError::DuplicateKeyInWrite { key } => {
                write!(f, "key {key} appears twice in one write batch")
            }
        }
    }
}

impl std::error::Error for DkvError {}
