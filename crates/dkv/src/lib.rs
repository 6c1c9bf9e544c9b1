//! Distributed key-value store for the sampler's `pi` state.
//!
//! The paper builds a bespoke DKV store directly on InfiniBand ib-verbs
//! (§III-B) because its use case is unusually simple: a *static* key set
//! (one key per vertex, no inserts/deletes), *fixed-size* values (`K + 1`
//! floats: the `pi` row plus `sum(phi)`), and *barrier-separated* access
//! stages in which writes always target unique keys — so every operation
//! is exactly one RDMA read or one RDMA write, with no concurrency
//! control.
//!
//! This crate reproduces that store's layout and prices:
//!
//! * [`Partition`] — the static key-to-owner mapping,
//! * [`CostModel`] — the modeled RDMA time of a batched read or write
//!   from a given rank ([`CostModel::read_cost`]); it needs no populated
//!   store,
//! * [`OpObs`] — the per-batch counters, latency histogram and span of
//!   one DKV access,
//! * [`pipeline`] — the price of the chunked `pi` load and of
//!   overlapping its loads with compute (paper §III-D, Figure 3, Table
//!   III): [`pipeline::price`] charges each chunk's load by the
//!   [`CostModel`] and its compute per key delivered, with no clock read
//!   and nothing run inside it, and folds the pass's makespan under a
//!   [`pipeline::PipelineMode`] — every load paid, or each load hidden
//!   behind the previous chunk's compute,
//! * [`ShardedStore`] behind [`DkvStore`] — per-rank shards that move
//!   real bytes: the store's request path.
//!
//! Callers: the lockstep `DistributedSampler` keeps one copy of `pi`,
//! the master's state. Between two barriers the paper's store holds
//! exactly that state, so every DKV access reads or writes it in place
//! and is charged to the rank's virtual clock at the [`CostModel`]'s
//! price, and `fig5_dkv_bandwidth` prices its reads the same way.
//! [`ShardedStore`]'s data plane is what the benchmark's
//! `dkv.read_batch_us` probe measures; nothing else but tests calls it.

#![forbid(unsafe_code)]

pub mod pipeline;

mod partition;
mod store;

pub use partition::Partition;
pub use store::{CostModel, DkvStore, OpObs, ShardedStore};

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = DkvError::KeyOutOfRange {
            key: 10,
            num_keys: 5,
        };
        assert!(e.to_string().contains("10"));
        let e = DkvError::BufferSizeMismatch {
            expected: 8,
            got: 4,
        };
        assert!(e.to_string().contains('8'));
        let e = DkvError::DuplicateKeyInWrite { key: 3 };
        assert!(e.to_string().contains('3'));
    }
}
