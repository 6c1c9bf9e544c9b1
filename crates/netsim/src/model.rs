//! Point-to-point and RDMA cost model.
//!
//! A LogGP-style model: a message of `n` bytes costs
//! `latency + overhead + n / bandwidth`. RDMA one-sided operations replace
//! the software `overhead` with a (smaller) NIC work-request setup cost —
//! that is exactly the advantage the paper exploits by building its DKV
//! store directly on ib-verbs.

/// Cost model for one network fabric. All times in seconds, sizes in bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// One-way wire latency (seconds).
    pub latency: f64,
    /// Sustained bandwidth (bytes/second).
    pub bandwidth: f64,
    /// Per-message software overhead for two-sided (MPI-style) messages.
    pub sw_overhead: f64,
    /// Per-operation setup cost for one-sided RDMA verbs (work request,
    /// doorbell, completion); no remote CPU involvement.
    pub rdma_setup: f64,
}

impl NetworkModel {
    /// FDR InfiniBand (4x, 56 Gbit/s signalling, ~6.8 GB/s effective) —
    /// the DAS5 fabric. Latency and setup costs follow published qperf /
    /// ib_read_lat numbers for ConnectX-3 era hardware.
    pub fn fdr_infiniband() -> Self {
        Self {
            latency: 0.7e-6,
            bandwidth: 6.8e9,
            sw_overhead: 1.5e-6,
            rdma_setup: 0.35e-6,
        }
    }

    /// 10-gigabit Ethernet with kernel TCP — a slower comparison fabric
    /// for ablations.
    pub fn ethernet_10g() -> Self {
        Self {
            latency: 15e-6,
            bandwidth: 1.1e9,
            sw_overhead: 10e-6,
            rdma_setup: 5e-6,
        }
    }

    /// An idealized zero-cost network. Collapses the distributed sampler
    /// to pure compute; used in tests and to isolate communication shares.
    pub fn ideal() -> Self {
        Self {
            latency: 0.0,
            bandwidth: f64::INFINITY,
            sw_overhead: 0.0,
            rdma_setup: 0.0,
        }
    }

    /// Time for a two-sided message of `bytes`.
    #[inline]
    pub fn message_time(&self, bytes: usize) -> f64 {
        self.latency + self.sw_overhead + bytes as f64 / self.bandwidth
    }

    /// Time for a one-sided RDMA read of `bytes` (request + response
    /// crossing the wire: one round trip of latency).
    #[inline]
    pub fn rdma_read_time(&self, bytes: usize) -> f64 {
        2.0 * self.latency + self.rdma_setup + bytes as f64 / self.bandwidth
    }

    /// The `qperf`-style achievable bandwidth (bytes/s) for RDMA reads of
    /// a given payload — the reference ceiling of Figure 5. Bandwidth
    /// tests keep many operations outstanding, so per-operation work
    /// request posting overlaps the DMA transfers: the steady-state cost
    /// per operation is `max(setup, transfer)`, not their sum.
    #[inline]
    pub fn qperf_read_bandwidth(&self, bytes: usize) -> f64 {
        bytes as f64 / self.pipelined_op_time(bytes)
    }

    /// The `qperf`-style achievable bandwidth for RDMA writes (identical
    /// to reads in the pipelined steady state, corroborating the paper's
    /// observation via Herd).
    #[inline]
    pub fn qperf_write_bandwidth(&self, bytes: usize) -> f64 {
        bytes as f64 / self.pipelined_op_time(bytes)
    }

    /// Steady-state per-operation time of a deep pipeline of one-sided
    /// operations of `bytes` each.
    #[inline]
    pub fn pipelined_op_time(&self, bytes: usize) -> f64 {
        (bytes as f64 / self.bandwidth).max(self.rdma_setup)
    }

    /// Tree barrier across `ranks` processes (see [`crate::collective`]).
    #[inline]
    pub fn barrier_time(&self, ranks: usize) -> f64 {
        crate::collective::barrier(self, ranks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_sensibly() {
        let ib = NetworkModel::fdr_infiniband();
        let eth = NetworkModel::ethernet_10g();
        assert!(ib.latency < eth.latency);
        assert!(ib.bandwidth > eth.bandwidth);
        for bytes in [64, 4096, 1 << 20] {
            assert!(ib.message_time(bytes) < eth.message_time(bytes));
        }
    }

    #[test]
    fn ideal_network_is_free() {
        let net = NetworkModel::ideal();
        assert_eq!(net.message_time(1 << 30), 0.0);
        assert_eq!(net.rdma_read_time(1 << 30), 0.0);
        assert_eq!(net.barrier_time(64), 0.0);
    }

    #[test]
    fn cost_grows_with_size() {
        let net = NetworkModel::fdr_infiniband();
        assert!(net.message_time(1 << 20) > net.message_time(1 << 10));
        assert!(net.rdma_read_time(1 << 20) > net.rdma_read_time(1 << 10));
    }

    #[test]
    fn rdma_beats_two_sided_for_small_messages() {
        // The motivation for the custom DKV store: setup cost below the
        // software overhead of a two-sided stack.
        let net = NetworkModel::fdr_infiniband();
        assert!(net.rdma_setup < net.sw_overhead);
    }

    #[test]
    fn qperf_bandwidth_saturates_with_payload() {
        let net = NetworkModel::fdr_infiniband();
        let small = net.qperf_read_bandwidth(256);
        let large = net.qperf_read_bandwidth(1 << 20);
        assert!(small < 0.5 * net.bandwidth, "256B should be setup-bound");
        assert!(large > 0.95 * net.bandwidth, "1MiB should saturate");
        // Monotone non-decreasing over the Figure 5 sweep.
        let mut prev = 0.0;
        let mut bytes = 256;
        while bytes <= (1 << 20) {
            let bw = net.qperf_read_bandwidth(bytes);
            assert!(bw >= prev);
            prev = bw;
            bytes *= 2;
        }
    }

    #[test]
    fn read_write_bandwidth_identical_in_steady_state() {
        // Corroborates the paper's observation (via Herd) that RDMA read
        // and write bandwidth are nearly identical for pipelined payloads.
        let net = NetworkModel::fdr_infiniband();
        for bytes in [256, 4096, 1 << 18, 1 << 20] {
            let r = net.qperf_read_bandwidth(bytes);
            let w = net.qperf_write_bandwidth(bytes);
            assert_eq!(r, w, "bytes={bytes}");
        }
    }

    #[test]
    fn pipelined_op_time_is_setup_or_transfer_bound() {
        let net = NetworkModel::fdr_infiniband();
        // Small payload: setup-bound.
        assert_eq!(net.pipelined_op_time(64), net.rdma_setup);
        // Large payload: transfer-bound.
        let big = 1 << 20;
        assert!((net.pipelined_op_time(big) - big as f64 / net.bandwidth).abs() < 1e-12);
    }
}
