//! Network and cluster cost modeling for the simulated DAS5 fabric.
//!
//! The paper's experiments ran on up to 65 DAS5 nodes connected by FDR
//! InfiniBand. This workspace reproduces the *algorithmic* work for real on
//! one machine and models only the wire: every communication or RDMA
//! operation advances a per-rank [`VirtualClock`] by a cost computed from a
//! [`NetworkModel`], and collectives use tree-based [`collective`]
//! formulas. The compute side is counted work priced per operation at
//! rates calibrated on the real kernels, so the compute/communication
//! ratio — which determines the scaling curves of Figures 1–4 — is
//! preserved. See DESIGN.md §3 and §7.
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
pub mod obs_bridge;

mod clock;
mod fault;
mod model;
mod trace;

pub use clock::{ClusterClocks, VirtualClock};
pub use fault::{DkvFault, FaultConfig, FaultPlan, MsgFault, RecoveryPolicy};
pub use model::NetworkModel;
pub use trace::{Phase, PhaseTimes, TraceReport};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_example_compiles_and_runs() {
        let net = NetworkModel::fdr_infiniband();
        let mut clocks = ClusterClocks::new(4);
        clocks.advance(0, net.rdma_read_time(64 * 1024));
        clocks.barrier(net.barrier_time(4));
        assert!(clocks.now(3) > 0.0);
        assert_eq!(clocks.now(1), clocks.now(2));
    }
}
