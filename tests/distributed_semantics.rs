//! Distributed-execution semantics: worker counts, pipelining and network
//! models must affect *time*, never *values*; timing must respond to the
//! knobs the way the paper's measurements do.

use mmsb::netsim::Phase;
use mmsb::prelude::*;

fn setup(seed: u64, n: u32) -> (Graph, HeldOut) {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let generated = generate_planted(
        &PlantedConfig {
            num_vertices: n,
            num_communities: 8,
            mean_community_size: (n as f64 / 10.0).max(10.0),
            memberships_per_vertex: 1.1,
            internal_degree: 10.0,
            background_degree: 0.5,
        },
        &mut rng,
    );
    HeldOut::split(&generated.graph, (n / 5) as usize, &mut rng)
}

fn config(k: usize) -> SamplerConfig {
    SamplerConfig::new(k)
        .with_seed(77)
        .with_minibatch(Strategy::StratifiedNode {
            partitions: 16,
            anchors: 32,
        })
}

/// Seconds charged by the cost model alone: `pi` loads, barriers and the
/// mini-batch deployment. Two samplers are only ever ordered by this —
/// `virtual_time()` also holds *measured* compute, which follows the
/// load on the host running the test.
fn modelled_wire(d: &DistributedSampler) -> f64 {
    let phases = d.report().phases;
    phases.total(Phase::LoadPi)
        + phases.total(Phase::Barrier)
        + phases.total(Phase::DeployMinibatch)
}

#[test]
fn worker_count_changes_time_not_state() {
    let (g, h) = setup(1, 600);
    let mut results = Vec::new();
    for workers in [1usize, 3, 8] {
        let mut d = DistributedSampler::new(
            g.clone(),
            h.clone(),
            config(8),
            DistributedConfig::das5(workers),
        )
        .unwrap();
        d.run(8);
        let pis: Vec<f32> = (0..d.state().n())
            .flat_map(|a| d.state().pi_row(a).to_vec())
            .collect();
        results.push((pis, d.virtual_time()));
    }
    assert_eq!(results[0].0, results[1].0);
    assert_eq!(results[0].0, results[2].0);
}

#[test]
fn slower_network_costs_more_virtual_time() {
    let (g, h) = setup(2, 400);
    let mut times = Vec::new();
    for net in [NetworkModel::fdr_infiniband(), NetworkModel::ethernet_10g()] {
        let dcfg = DistributedConfig::das5(4).with_net(net);
        let mut d = DistributedSampler::new(g.clone(), h.clone(), config(8), dcfg).unwrap();
        d.run(6);
        times.push(modelled_wire(&d));
    }
    assert!(
        times[1] > times[0],
        "10G Ethernet should be slower than FDR InfiniBand: {times:?}"
    );
}

#[test]
fn ideal_network_removes_load_pi_wire_time() {
    let (g, h) = setup(3, 400);
    let dcfg = DistributedConfig::das5(4).with_net(NetworkModel::ideal());
    let mut d = DistributedSampler::new(g.clone(), h.clone(), config(8), dcfg).unwrap();
    d.run(5);
    let ideal_load = d.report().phases.total(Phase::LoadPi);

    let dcfg = DistributedConfig::das5(4);
    let mut d = DistributedSampler::new(g, h, config(8), dcfg).unwrap();
    d.run(5);
    let ib_load = d.report().phases.total(Phase::LoadPi);
    assert!(
        ib_load > 2.0 * ideal_load,
        "InfiniBand load_pi {ib_load} should dwarf ideal-network {ideal_load}"
    );
}

#[test]
fn report_phase_totals_cover_the_pipeline() {
    let (g, h) = setup(4, 400);
    let mut d =
        DistributedSampler::new(g, h, config(8), DistributedConfig::das5(4)).unwrap();
    d.run(6);
    d.evaluate_perplexity();
    let report = d.report();
    for phase in [
        Phase::DrawMinibatch,
        Phase::DeployMinibatch,
        Phase::SampleNeighbors,
        Phase::LoadPi,
        Phase::UpdatePhi,
        Phase::UpdatePi,
        Phase::UpdateBetaTheta,
        Phase::Perplexity,
        Phase::Barrier,
    ] {
        assert!(
            report.phases.count(phase) > 0,
            "phase {phase:?} never recorded"
        );
    }
    assert_eq!(report.iterations, 6);
    assert!(report.total_seconds > 0.0);
}

#[test]
fn update_phi_dominates_like_the_paper_says() {
    // Paper §III-C: update_phi (loads + compute) is the dominant stage.
    let (g, h) = setup(5, 800);
    let mut d = DistributedSampler::new(
        g,
        h,
        config(16).with_neighbor_sample(64),
        DistributedConfig::das5(8),
    )
    .unwrap();
    d.run(8);
    let r = d.report();
    let phi_stage = r.phases.total(Phase::LoadPi) + r.phases.total(Phase::UpdatePhi);
    for other in [Phase::UpdatePi, Phase::UpdateBetaTheta, Phase::SampleNeighbors] {
        assert!(
            phi_stage > r.phases.total(other),
            "update_phi ({phi_stage}) not dominant over {other:?} ({})",
            r.phases.total(other)
        );
    }
}

#[test]
fn weak_scaling_keeps_per_iteration_time_roughly_flat() {
    // Figure 2: growing K with the cluster keeps time/iter about constant.
    // (K per worker constant => the bytes each worker loads stay constant:
    // rows widen as its vertex share shrinks.)
    let (g, h) = setup(6, 600);
    let mut times = Vec::new();
    for (workers, k) in [(2usize, 8usize), (4, 16), (8, 32)] {
        let mut d = DistributedSampler::new(
            g.clone(),
            h.clone(),
            config(k),
            DistributedConfig::das5(workers),
        )
        .unwrap();
        d.run(6);
        times.push(modelled_wire(&d) / 6.0);
    }
    let max = times.iter().cloned().fold(0.0, f64::max);
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        max / min < 4.0,
        "weak scaling blew up: per-iteration times {times:?}"
    );
}
