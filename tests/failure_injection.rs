//! Failure injection across crate boundaries: malformed inputs and
//! misconfigurations must fail loudly and precisely, never corrupt state.

use mmsb::comm::{collectives, CommError, LocalCluster};
use mmsb::dkv::{DkvError, DkvStore, Partition, ShardedStore};
use mmsb::graph::{io, GraphError};
use mmsb::prelude::*;

#[test]
fn malformed_snap_inputs_are_rejected_with_line_numbers() {
    for (input, expected_line) in [
        ("1\n", 1),
        ("1 2\n3\n", 2),
        ("# c\n# c\n1 2 3\n", 3),
        ("a b\n", 1),
    ] {
        match io::read_edge_list(input.as_bytes()) {
            Err(GraphError::Parse { line, .. }) => assert_eq!(line, expected_line, "{input:?}"),
            other => panic!("expected parse error for {input:?}, got {other:?}"),
        }
    }
}

#[test]
fn dkv_store_rejects_bad_batches_without_mutation() {
    let mut store = ShardedStore::new(Partition::new(10, 3), 2);
    store.write_batch(&[1], &[5.0, 6.0]).unwrap();

    // Out-of-range key in a mixed batch: nothing may be written.
    let err = store
        .write_batch(&[1, 99], &[0.0, 0.0, 0.0, 0.0])
        .unwrap_err();
    assert!(matches!(err, DkvError::KeyOutOfRange { key: 99, .. }));
    assert_eq!(store.read_row(1).unwrap(), vec![5.0, 6.0], "partial write leaked");

    // Wrong buffer shape.
    let err = store.write_batch(&[1], &[0.0]).unwrap_err();
    assert!(matches!(err, DkvError::BufferSizeMismatch { .. }));

    // Duplicate keys violate the no-hazard contract.
    let err = store.write_batch(&[2, 2], &[0.0; 4]).unwrap_err();
    assert!(matches!(err, DkvError::DuplicateKeyInWrite { key: 2 }));
}

#[test]
fn communicator_surfaces_disconnects() {
    let mut eps = LocalCluster::spawn(2);
    let b = eps.pop().unwrap();
    drop(b); // rank 1's endpoint (and its receiver) dies
    let a = eps.pop().unwrap();
    match a.send(1, vec![1, 2, 3]) {
        Err(CommError::Disconnected { peer: 1 }) => {}
        other => panic!("expected disconnect, got {other:?}"),
    }
}

#[test]
fn collective_length_mismatch_is_detected_not_silently_padded() {
    let eps = LocalCluster::spawn(2);
    let handles: Vec<_> = eps
        .into_iter()
        .map(|ep| {
            std::thread::spawn(move || {
                let data = vec![1.0; 2 + ep.rank()];
                collectives::reduce_sum_f64(&ep, 0, &data)
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(matches!(&results[0], Err(CommError::Malformed { .. })));
}

#[test]
fn sampler_construction_rejects_inconsistent_setups() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
    let generated = generate_planted(
        &PlantedConfig {
            num_vertices: 60,
            num_communities: 3,
            mean_community_size: 25.0,
            memberships_per_vertex: 1.1,
            internal_degree: 8.0,
            background_degree: 0.5,
        },
        &mut rng,
    );
    let (train, heldout) = HeldOut::split(&generated.graph, 20, &mut rng);

    // Neighbor sample larger than the graph.
    let bad = SamplerConfig::new(3).with_neighbor_sample(60);
    assert!(ParallelSampler::with_threads(train.clone(), heldout.clone(), bad, 1).is_err());

    // Distributed sampler with FullPhi layout (no DKV row format).
    let full = SamplerConfig::new(3).with_layout(StateLayout::FullPhi);
    assert!(DistributedSampler::new(
        train.clone(),
        heldout.clone(),
        full,
        DistributedConfig::das5(2)
    )
    .is_err());

    // Zero workers.
    assert!(DistributedSampler::new(
        train,
        heldout,
        SamplerConfig::new(3),
        DistributedConfig::das5(0)
    )
    .is_err());
}

#[test]
fn heldout_split_rejects_oversized_requests() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
    let generated = generate_planted(
        &PlantedConfig {
            num_vertices: 40,
            num_communities: 2,
            mean_community_size: 20.0,
            memberships_per_vertex: 1.0,
            internal_degree: 6.0,
            background_degree: 0.5,
        },
        &mut rng,
    );
    let edges = generated.graph.num_edges() as usize;
    let result = std::panic::catch_unwind(move || {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        HeldOut::split(&generated.graph, edges + 1, &mut rng)
    });
    assert!(result.is_err(), "oversized held-out request must panic");
}
