//! Node-level compute model: what a simulated rank's work costs.
//!
//! The simulated cluster does not time its ranks. Each stage counts the
//! work it did — pairs drawn, neighbours sampled, `pi` rows gathered × K,
//! vertices × K, pairs × K — and charges the count at its per-operation
//! price ([`NodeComputeModel::PRICES`], one core of the reference host).
//! The 16-core OpenMP parallelism each DAS5 node applies on top — and the
//! 40-core HPC Cloud machine of Figure 4 — is modeled with Amdahl's law
//! plus a per-core efficiency factor, calibrated to typical memory-bound
//! scaling of the `update_phi` kernel. Nothing here reads a clock, so the
//! virtual time of a run is a function of its configuration and seed
//! alone. See DESIGN.md §3 and §7.

/// Seconds one core spends per counted operation of each simulated
/// stage. Worker prices are Amdahl-scaled by the node model
/// ([`NodeComputeModel::worker_secs`]); the master's (`draw_pair`,
/// `theta_step_k`) are charged as they are: its stages run serially.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpPrices {
    /// Master: per mini-batch pair drawn.
    pub draw_pair: f64,
    /// Worker, `update_phi` pass 1: per neighbour sampled.
    pub sample_neighbor: f64,
    /// Worker, `update_phi` pass 2: per `pi` row a load chunk delivers
    /// (own row and sampled neighbours) × K.
    pub phi_row_k: f64,
    /// Worker, `update_pi`: per updated vertex × K.
    pub apply_vertex_k: f64,
    /// Worker, `update_beta_theta`: per mini-batch pair × K.
    pub theta_pair_k: f64,
    /// Master, `update_beta_theta`: per community (the `theta` step and
    /// the `beta` refresh).
    pub theta_step_k: f64,
    /// Worker, held-out perplexity: per pair × K.
    pub perplexity_pair_k: f64,
}

/// Amdahl-style speedup model for one node's thread-level parallelism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeComputeModel {
    /// Number of cores (threads) the node uses.
    pub cores: usize,
    /// Fraction of per-iteration node work that does not parallelize
    /// (mini-batch unpacking, loop setup, reductions).
    pub serial_fraction: f64,
    /// Multiplicative per-core efficiency on the parallel part, capturing
    /// memory-bandwidth saturation (1.0 = perfect scaling).
    pub parallel_efficiency: f64,
}

impl NodeComputeModel {
    /// The one calibration of the simulated compute: the per-operation
    /// prices of the reference host, a 2-vCPU x86-64 VM running the AVX2
    /// kernels. Each is the median over three traced runs of the
    /// `train_cluster_sim` benchmark workload (seed 3) of a stage's
    /// measured single-thread seconds over its operation count. Every
    /// node model shares it: its cores are the reference host's.
    pub const PRICES: OpPrices = OpPrices {
        draw_pair: 96.1e-9,
        sample_neighbor: 17.7e-9,
        phi_row_k: 2.08e-9,
        apply_vertex_k: 2.65e-9,
        theta_pair_k: 2.84e-9,
        theta_step_k: 117e-9,
        perplexity_pair_k: 4.38e-9,
    };

    /// A single-threaded node (no model adjustment).
    pub fn serial() -> Self {
        Self {
            cores: 1,
            serial_fraction: 0.0,
            parallel_efficiency: 1.0,
        }
    }

    /// A DAS5-like node: 16 cores, a small serial fraction and the
    /// sub-linear scaling typical of a memory-bound stochastic-gradient
    /// kernel.
    pub fn das5_node() -> Self {
        Self {
            cores: 16,
            serial_fraction: 0.03,
            parallel_efficiency: 0.85,
        }
    }

    /// The 40-core, 1 TB HPC Cloud machine of Figure 4.
    pub fn hpc_cloud_40() -> Self {
        Self {
            cores: 40,
            serial_fraction: 0.03,
            parallel_efficiency: 0.85,
        }
    }

    /// A copy of this model with a different core count.
    pub fn with_cores(mut self, cores: usize) -> Self {
        assert!(cores >= 1, "a node needs at least one core");
        self.cores = cores;
        self
    }

    /// Effective speedup over single-threaded execution:
    /// `1 / (s + (1 - s) / (cores * eff))` where the effective parallel
    /// width is `cores * parallel_efficiency`.
    pub fn speedup(&self) -> f64 {
        assert!(self.cores >= 1, "a node needs at least one core");
        assert!(
            (0.0..=1.0).contains(&self.serial_fraction),
            "serial fraction must be in [0, 1]"
        );
        assert!(
            self.parallel_efficiency > 0.0 && self.parallel_efficiency <= 1.0,
            "efficiency must be in (0, 1]"
        );
        if self.cores == 1 {
            return 1.0;
        }
        let width = self.cores as f64 * self.parallel_efficiency;
        1.0 / (self.serial_fraction + (1.0 - self.serial_fraction) / width)
    }

    /// Scale a single-threaded time to this node's modeled
    /// multi-threaded time.
    #[inline]
    pub fn scale(&self, serial_seconds: f64) -> f64 {
        serial_seconds / self.speedup()
    }

    /// Modeled seconds of `count` worker operations at `price` each: the
    /// serial cost, Amdahl-scaled to this node.
    #[inline]
    pub fn worker_secs(&self, price: f64, count: usize) -> f64 {
        self.scale(price * count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_model_is_identity() {
        let m = NodeComputeModel::serial();
        assert_eq!(m.speedup(), 1.0);
        assert_eq!(m.scale(2.5), 2.5);
    }

    #[test]
    fn speedup_increases_with_cores_sublinearly() {
        let m16 = NodeComputeModel::das5_node();
        let m40 = NodeComputeModel::hpc_cloud_40();
        let s16 = m16.speedup();
        let s40 = m40.speedup();
        assert!(s16 > 6.0 && s16 < 16.0, "s16 = {s16}");
        assert!(s40 > s16, "40 cores should beat 16");
        assert!(s40 < 40.0, "speedup must be sublinear");
    }

    #[test]
    fn amdahl_limit_respected() {
        // With 10% serial work, speedup can never exceed 10x.
        let m = NodeComputeModel {
            cores: 10_000,
            serial_fraction: 0.1,
            parallel_efficiency: 1.0,
        };
        assert!(m.speedup() < 10.0);
        assert!(m.speedup() > 9.0);
    }

    #[test]
    fn scale_divides_by_speedup() {
        let m = NodeComputeModel::das5_node();
        let t = m.scale(1.0);
        assert!((t - 1.0 / m.speedup()).abs() < 1e-15);
    }

    #[test]
    fn worker_secs_prices_counts_then_scales() {
        let m = NodeComputeModel::das5_node();
        let price = NodeComputeModel::PRICES.phi_row_k;
        assert_eq!(m.worker_secs(price, 0), 0.0);
        assert_eq!(m.worker_secs(price, 640), m.scale(price * 640.0));
        assert_eq!(
            NodeComputeModel::serial().worker_secs(price, 640),
            price * 640.0
        );
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        NodeComputeModel::serial().with_cores(0);
    }
}
