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
//! This crate reproduces that store for the simulated cluster:
//!
//! * [`Partition`] — the static key-to-owner mapping,
//! * [`DkvStore`] — the read/write-batch interface,
//! * [`ShardedStore`] — per-rank shards with modeled RDMA cost accounting
//!   ([`ShardedStore::read_cost`]), the distributed configuration,
//! * [`pipeline`] — the chunked loader that overlaps loading `pi` with
//!   compute (paper §III-D, Figure 3, Table III): one
//!   [`pipeline::ChunkReader`] whose [`pipeline::PipelineMode`] selects
//!   synchronous reads or real double buffering on a background worker;
//!   either way a pass reports its makespan *modeled* by
//!   [`pipeline::schedule`] next to its *measured* wall-clock.
//!
//! Callers: the lockstep `DistributedSampler` (behind [`FaultingStore`])
//! and each `train_threaded` worker read and write `pi` through
//! [`ShardedStore`] and load it through the [`pipeline`] reader.
//!
//! Data movement is performed for real (rows are copied through the store
//! on every access); only the *wire time* is modeled, by `mmsb-netsim`.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod pipeline;

mod faults;
mod partition;
mod store;

pub use faults::{FaultingStore, OpOutcome};
pub use partition::Partition;
pub use store::{DkvStore, ShardedStore};

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
    /// A fault-injected operation failed on every attempt the recovery
    /// policy allowed.
    RetriesExhausted {
        /// Attempts performed before giving up.
        attempts: u32,
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
            DkvError::RetriesExhausted { attempts } => {
                write!(f, "operation failed on all {attempts} attempts")
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
