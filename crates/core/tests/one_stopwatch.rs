//! Pins one timer per instrumented region: the span guard that stamps a
//! region's ring record also records its histogram, from the same two
//! clock reads. So over a few `ParallelSampler` steps at
//! `ObsLevel::Spans` the `step` spans' durations sum to exactly the
//! `step_ns` histogram's sum, and the `update_phi` spans' to exactly
//! `phase_update_phi_ns`'s — a second stopwatch beside a span would read
//! the clock at other instants and miss by a few nanoseconds.
//!
//! This file holds a single test on purpose: the obs pipeline is
//! process-global, and a concurrently running test would add records.

use mmsb_core::{ParallelSampler, SamplerConfig};
use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};
use mmsb_graph::heldout::HeldOut;
use mmsb_obs::{id, ObsConfig, ObsLevel, Phase};
use mmsb_rand::Xoshiro256PlusPlus;

#[test]
fn span_duration_is_the_histogram_sample() {
    let obs = mmsb_obs::init(ObsConfig {
        level: ObsLevel::Spans,
        shards: 8,
        span_capacity: 1024,
    });

    let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
    let gen = generate_planted(
        &PlantedConfig {
            num_vertices: 200,
            num_communities: 4,
            mean_community_size: 55.0,
            memberships_per_vertex: 1.1,
            internal_degree: 8.0,
            background_degree: 0.5,
        },
        &mut rng,
    );
    let (graph, heldout) = HeldOut::split(&gen.graph, 40, &mut rng);
    let mut sampler =
        ParallelSampler::with_threads(graph, heldout, SamplerConfig::new(4).with_seed(5), 2)
            .unwrap();
    const STEPS: u64 = 3;
    for _ in 0..STEPS {
        sampler.step();
    }

    assert_eq!(obs.spans.dropped(), 0);
    let records = obs.spans.snapshot();
    for (span, hist) in [
        (id::S_STEP, id::H_STEP_NS),
        (Phase::UpdatePhi as usize, Phase::UpdatePhi as usize),
    ] {
        let durs: Vec<u64> = records
            .iter()
            .filter(|r| r.span_id == span as u64)
            .map(|r| r.dur_ns)
            .collect();
        let name = id::HIST_NAMES[hist];
        assert_eq!(durs.len() as u64, STEPS, "{name}: one span per step");
        assert_eq!(
            obs.metrics.hist_count(hist),
            STEPS,
            "{name}: one sample per step"
        );
        assert_eq!(
            durs.iter().sum::<u64>(),
            obs.metrics.hist_sum(hist),
            "{name}: the spans' durations are the histogram's samples"
        );
    }
}
