//! The price of the paper's cluster: what a recorded step of the sampler
//! costs the simulated DAS5 fabric (up to 65 nodes on FDR InfiniBand).
//!
//! The algorithmic work runs for real on one machine; this crate models
//! the rest. Every communication or RDMA operation advances a per-rank
//! [`VirtualClock`] by a [`NetworkModel`] cost, collectives use tree-based
//! [`collective`] formulas, DKV access is priced by [`dkv`], and compute
//! is counted work at per-operation prices calibrated on the real kernels
//! ([`NodeComputeModel`]), so the compute/communication ratio behind
//! Figures 1–4 is preserved. [`ClusterModel`] charges one [`StepRecord`]
//! to the ranks' clocks and the phase times (DESIGN.md §3 and §7).
//!
//! Who calls it: `mmsb-core`'s `DistributedSampler` hands each step record
//! of the pool driver to a [`ClusterModel`]; the figure binaries and the
//! benchmark read the [`dkv`] prices and the [`TraceReport`]. It depends on
//! neither the sampler, the pool nor the graph file, so the price cannot
//! run a stage of the chain.
//!
//! # Example
//!
//! ```
//! use mmsb_netsim::{NetworkModel, ClusterClocks};
//!
//! let net = NetworkModel::fdr_infiniband();
//! let mut clocks = ClusterClocks::new(4);
//! clocks.advance(0, net.rdma_read_time(64 * 1024)); // rank 0 reads 64 KiB
//! clocks.barrier(net.barrier_time(4));              // everyone syncs
//! assert!(clocks.now(3) > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod collective;
pub mod dkv;
pub mod obs_bridge;

mod clock;
mod cluster;
mod compute_model;
mod fault;
mod model;
mod partition;
mod pipeline;
mod store;
mod trace;

pub use clock::{ClusterClocks, VirtualClock};
pub use cluster::{share, ClusterModel, DistributedConfig, StepRecord};
pub use compute_model::{NodeComputeModel, OpPrices};
pub use fault::{DkvFault, FaultConfig, FaultPlan, MsgFault, RecoveryPolicy};
pub use model::NetworkModel;
pub use trace::{Phase, PhaseTimes, TraceReport};

/// Crate-level tests; `error_display` keeps the path it had in the DKV
/// store's own crate.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::dkv::DkvError;

    #[test]
    fn crate_example_compiles_and_runs() {
        let net = NetworkModel::fdr_infiniband();
        let mut clocks = ClusterClocks::new(4);
        clocks.advance(0, net.rdma_read_time(64 * 1024));
        clocks.barrier(net.barrier_time(4));
        assert!(clocks.now(3) > 0.0);
        assert_eq!(clocks.now(1), clocks.now(2));
    }

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
