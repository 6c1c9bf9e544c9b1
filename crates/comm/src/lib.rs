//! In-process message-passing: the workspace's MPI analogue.
//!
//! The paper composes its distributed runtime from MPI point-to-point
//! messages, barriers, reduce and gather (§III). This crate provides the
//! primitives its one consumer, `mmsb_core::train_threaded`, calls —
//! with MPI semantics, over OS threads and `std::sync::mpsc` channels:
//!
//! * [`LocalCluster::spawn`] creates `R` connected [`Endpoint`]s, one per
//!   rank, that can be moved into worker threads (`send`, source-matched
//!   `recv` that turns a dead peer into [`CommError::Disconnected`]
//!   instead of a hang, `barrier`),
//! * [`collectives`] implements the root-centric reduce and gather over
//!   the point-to-point layer,
//! * [`message`] provides a compact, alignment-safe wire encoding for the
//!   float and index vectors the sampler exchanges.
//!
//! The lockstep `DistributedSampler` never sends a message: it prices
//! its collectives through `mmsb-netsim`. This crate is about transport
//! semantics and is fully functional (the integration tests run real
//! multi-threaded exchanges).
//!
//! # Example
//!
//! ```
//! use mmsb_comm::{LocalCluster, collectives};
//!
//! let endpoints = LocalCluster::spawn(3);
//! let handles: Vec<_> = endpoints
//!     .into_iter()
//!     .map(|ep| {
//!         std::thread::spawn(move || {
//!             let mine = vec![ep.rank() as f64];
//!             collectives::reduce_sum_f64(&ep, 0, &mine).unwrap()
//!         })
//!     })
//!     .collect();
//! let sums: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
//! assert_eq!(sums[0], Some(vec![0.0 + 1.0 + 2.0]));
//! assert_eq!(sums[1], None);
//! ```

#![forbid(unsafe_code)]

pub mod collectives;
pub mod message;

mod local;

pub use local::{Endpoint, LocalCluster};

/// Errors surfaced by communicator operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The peer's endpoint was dropped (its thread exited or panicked).
    Disconnected {
        /// The rank whose channel broke.
        peer: usize,
    },
    /// A rank argument was `>= size`.
    RankOutOfRange {
        /// The offending rank.
        rank: usize,
        /// Cluster size.
        size: usize,
    },
    /// A decoded message did not have the expected shape.
    Malformed {
        /// Explanation of the mismatch.
        reason: String,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Disconnected { peer } => write!(f, "rank {peer} disconnected"),
            CommError::RankOutOfRange { rank, size } => {
                write!(f, "rank {rank} out of range for cluster of {size}")
            }
            CommError::Malformed { reason } => write!(f, "malformed message: {reason}"),
        }
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(CommError::Disconnected { peer: 3 }.to_string().contains('3'));
        assert!(CommError::RankOutOfRange { rank: 9, size: 4 }
            .to_string()
            .contains('9'));
        assert!(CommError::Malformed {
            reason: "short".into()
        }
        .to_string()
        .contains("short"));
    }
}
