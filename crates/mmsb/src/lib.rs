//! Scalable overlapping community detection — facade crate.
//!
//! One `use mmsb::prelude::*` away from the whole workspace: the a-MMSB
//! SG-MCMC samplers (`mmsb-core`), the graph substrate (`mmsb-graph`), the
//! deterministic RNG (`mmsb-rand`), the simulated cluster fabric
//! (`mmsb-netsim`), the message-passing layer (`mmsb-comm`), the
//! distributed key-value store (`mmsb-dkv`). The variational baseline
//! (`mmsb-svi`) is re-exported as [`svi`] but stays out of the prelude:
//! it is the oracle the tests compare against, not part of the sampler.
//!
//! See the repository README for a tour and `examples/` for runnable
//! entry points:
//!
//! * `quickstart` — train on a small synthetic graph, print communities,
//! * `community_detection` — recover planted overlapping communities and
//!   score them against ground truth,
//! * `distributed_simulation` — run the master–worker sampler on a
//!   simulated InfiniBand cluster and print the phase breakdown,
//! * `dataset_pipeline` — SNAP-format file in, trained model and
//!   communities out.

#![forbid(unsafe_code)]

pub use mmsb_comm as comm;
pub use mmsb_core as core;
pub use mmsb_dkv as dkv;
pub use mmsb_graph as graph;
pub use mmsb_netsim as netsim;
pub use mmsb_obs as obs;
pub use mmsb_ooc as ooc;
pub use mmsb_pool as pool;
pub use mmsb_rand as rand;
pub use mmsb_serve as serve;
pub use mmsb_svi as svi;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use mmsb_core::{
        communities::Communities, convergence::PlateauDetector, eval, link_probability,
        train_threaded, Backend, Checkpoint, CheckpointError, DistributedConfig,
        DistributedSampler, ModelState, NodeComputeModel, ParallelSampler,
        PerplexityAccumulator, SamplerConfig, SimdPolicy, StateLayout,
        StepSize,
    };
    pub use mmsb_dkv::pipeline::PipelineMode;
    pub use mmsb_graph::generate::datasets::{by_name, standins, DatasetSpec};
    pub use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};
    pub use mmsb_graph::generate::{GeneratedGraph, GroundTruth};
    pub use mmsb_graph::heldout::HeldOut;
    pub use mmsb_graph::minibatch::Strategy;
    pub use mmsb_graph::{Graph, GraphBuilder, VertexId};
    pub use mmsb_netsim::{FaultConfig, FaultPlan, NetworkModel, Phase, RecoveryPolicy, TraceReport};
    pub use mmsb_obs::{ObsConfig, ObsLevel};
    pub use mmsb_ooc::{BlockCache, GraphBackend, OocGraph};
    pub use mmsb_rand::{Rng, RngCore, Xoshiro256PlusPlus};
    pub use mmsb_serve::{ModelSnapshot, ServeConfig, ServeHandle, SnapshotCell};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_core_types() {
        use crate::prelude::*;
        // Touch a few re-exports so a broken path fails this test.
        let _ = SamplerConfig::new(4);
        let _ = NetworkModel::fdr_infiniband();
        let _ = PlantedConfig {
            num_vertices: 10,
            num_communities: 2,
            mean_community_size: 5.0,
            memberships_per_vertex: 1.0,
            internal_degree: 2.0,
            background_degree: 0.5,
        };
        assert_eq!(standins().len(), 6);
    }
}
