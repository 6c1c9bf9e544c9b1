//! Cost formulas for MPI-style collective operations.
//!
//! All collectives are modeled as binomial trees over `P` ranks, the
//! algorithm family MVAPICH2 uses for the message sizes and scales in the
//! paper's experiments. Each tree level costs one point-to-point message,
//! so a collective over `P` ranks costs `ceil(log2 P)` message times (plus
//! the payload term per level where data moves).

use crate::NetworkModel;

/// `ceil(log2(ranks))`, the depth of a binomial tree; 0 for 0 or 1 ranks.
#[inline]
pub fn tree_depth(ranks: usize) -> u32 {
    if ranks <= 1 {
        0
    } else {
        usize::BITS - (ranks - 1).leading_zeros()
    }
}

/// Barrier: one up-sweep plus one down-sweep of empty messages.
pub fn barrier(net: &NetworkModel, ranks: usize) -> f64 {
    2.0 * tree_depth(ranks) as f64 * net.message_time(0)
}

/// Broadcast `bytes` from the root to all ranks.
pub fn broadcast(net: &NetworkModel, ranks: usize, bytes: usize) -> f64 {
    tree_depth(ranks) as f64 * net.message_time(bytes)
}

/// Reduce `bytes` from all ranks to the root (payload moves every level;
/// the combine computation itself is charged by the caller).
pub fn reduce(net: &NetworkModel, ranks: usize, bytes: usize) -> f64 {
    tree_depth(ranks) as f64 * net.message_time(bytes)
}

/// All-reduce as reduce + broadcast.
pub fn allreduce(net: &NetworkModel, ranks: usize, bytes: usize) -> f64 {
    reduce(net, ranks, bytes) + broadcast(net, ranks, bytes)
}

/// Scatter distinct payloads of `bytes_per_rank` from the root to each of
/// `ranks` ranks. The root serializes `ranks - 1` sends; this linear model
/// matches the master-driven mini-batch deployment of the paper, where the
/// master streams a different slice to every worker.
pub fn scatter(net: &NetworkModel, ranks: usize, bytes_per_rank: usize) -> f64 {
    if ranks <= 1 {
        return 0.0;
    }
    (ranks - 1) as f64 * net.message_time(bytes_per_rank)
}

/// Gather is symmetric to scatter.
pub fn gather(net: &NetworkModel, ranks: usize, bytes_per_rank: usize) -> f64 {
    scatter(net, ranks, bytes_per_rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_depth_values() {
        assert_eq!(tree_depth(0), 0);
        assert_eq!(tree_depth(1), 0);
        assert_eq!(tree_depth(2), 1);
        assert_eq!(tree_depth(3), 2);
        assert_eq!(tree_depth(4), 2);
        assert_eq!(tree_depth(5), 3);
        assert_eq!(tree_depth(64), 6);
        assert_eq!(tree_depth(65), 7);
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let net = NetworkModel::fdr_infiniband();
        assert_eq!(barrier(&net, 1), 0.0);
        assert_eq!(broadcast(&net, 1, 1024), 0.0);
        assert_eq!(scatter(&net, 1, 1024), 0.0);
    }

    #[test]
    fn costs_grow_logarithmically() {
        let net = NetworkModel::fdr_infiniband();
        let b8 = barrier(&net, 8);
        let b64 = barrier(&net, 64);
        // 64 ranks = 2x the depth of 8 ranks, not 8x the cost.
        assert!((b64 / b8 - 2.0).abs() < 1e-9, "b8={b8} b64={b64}");
    }

    #[test]
    fn scatter_is_linear_in_ranks() {
        let net = NetworkModel::fdr_infiniband();
        let s4 = scatter(&net, 4, 1024);
        let s16 = scatter(&net, 16, 1024);
        assert!((s16 / s4 - 5.0).abs() < 1e-9); // (16-1)/(4-1) = 5
        assert_eq!(gather(&net, 16, 1024), s16);
    }

    #[test]
    fn allreduce_is_reduce_plus_broadcast() {
        let net = NetworkModel::fdr_infiniband();
        let a = allreduce(&net, 32, 4096);
        assert!((a - reduce(&net, 32, 4096) - broadcast(&net, 32, 4096)).abs() < 1e-15);
    }

    #[test]
    fn payload_matters_for_data_collectives() {
        let net = NetworkModel::fdr_infiniband();
        assert!(broadcast(&net, 8, 1 << 20) > broadcast(&net, 8, 1 << 10));
        assert!(reduce(&net, 8, 1 << 20) > reduce(&net, 8, 1 << 10));
    }
}
