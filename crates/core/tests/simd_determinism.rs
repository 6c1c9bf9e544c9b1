//! Bitwise determinism of the SIMD kernel dispatch.
//!
//! The per-backend contract (DESIGN.md §12): for a fixed kernel backend
//! and seed, the chain is a pure function of the inputs — the driver,
//! thread count, and scheduler must not appear in the bytes. Each
//! backend fixes its own reduction order (lane-strided partials folded
//! by an in-register butterfly, then the ascending scalar tail), so the
//! guarantee is *per backend*: scalar vs SIMD may differ in final-digit
//! rounding, but one backend at one seed is one chain everywhere.

use mmsb_core::{Backend, ParallelSampler, SamplerConfig, SimdPolicy};
use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};
use mmsb_graph::heldout::HeldOut;
use mmsb_graph::Graph;
use mmsb_rand::Xoshiro256PlusPlus;

fn setup(seed: u64) -> (Graph, HeldOut) {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let gen = generate_planted(
        &PlantedConfig {
            num_vertices: 150,
            num_communities: 4,
            mean_community_size: 40.0,
            memberships_per_vertex: 1.2,
            internal_degree: 8.0,
            background_degree: 0.5,
        },
        &mut rng,
    );
    HeldOut::split(&gen.graph, 45, &mut rng)
}

/// Every backend that will dispatch for real on this host; scalar is
/// always first so the test is meaningful even without SIMD hardware.
fn backends() -> Vec<Backend> {
    [Backend::Scalar, Backend::Avx2, Backend::Neon]
        .into_iter()
        .filter(|b| b.available())
        .collect()
}

fn snapshot(state: &mmsb_core::ModelState) -> (Vec<Vec<f32>>, Vec<f64>) {
    let pi = (0..state.n()).map(|a| state.pi_row(a).to_vec()).collect();
    (pi, state.theta().to_vec())
}

/// One forced backend, one seed: the sequential reference and the
/// parallel driver at several pool sizes must produce byte-identical
/// `pi`/`theta` state and bit-identical perplexity.
#[test]
fn forced_backend_chain_is_thread_count_invariant() {
    let (g, h) = setup(41);
    for backend in backends() {
        let cfg = SamplerConfig::new(5)
            .with_seed(23)
            .with_simd(SimdPolicy::Force(backend));

        let mut seq = ParallelSampler::with_threads(g.clone(), h.clone(), cfg.clone(), 1).unwrap();
        seq.run(6);
        let (ref_pi, ref_theta) = snapshot(seq.state());
        let ref_ppx = seq.evaluate_perplexity();

        for threads in [2usize, 3, 5] {
            let mut par =
                ParallelSampler::with_threads(g.clone(), h.clone(), cfg.clone(), threads).unwrap();
            par.run(6);
            let (pi, theta) = snapshot(par.state());
            assert_eq!(
                ref_pi, pi,
                "{backend}: pi diverged between 1 and {threads} threads"
            );
            assert_eq!(
                ref_theta, theta,
                "{backend}: theta diverged between 1 and {threads} threads"
            );
            let ppx = par.evaluate_perplexity();
            assert_eq!(
                ref_ppx.to_bits(),
                ppx.to_bits(),
                "{backend}: perplexity diverged at the bit level ({ref_ppx} vs {ppx})"
            );
        }
    }
}

/// `SimdPolicy::Auto` is pure dispatch sugar: it must land on exactly
/// the chain `Force(Backend::detect())` produces.
#[test]
fn auto_policy_matches_forced_detected_backend() {
    let (g, h) = setup(42);
    let base = SamplerConfig::new(4).with_seed(29);

    let mut auto = ParallelSampler::with_threads(
        g.clone(),
        h.clone(),
        base.clone().with_simd(SimdPolicy::Auto),
        3,
    )
    .unwrap();
    let mut forced = ParallelSampler::with_threads(
        g,
        h,
        base.with_simd(SimdPolicy::Force(Backend::detect())),
        3,
    )
    .unwrap();
    auto.run(6);
    forced.run(6);

    assert_eq!(snapshot(auto.state()), snapshot(forced.state()));
    assert_eq!(
        auto.evaluate_perplexity().to_bits(),
        forced.evaluate_perplexity().to_bits()
    );
}

/// Re-running the identical configuration is byte-for-byte reproducible
/// — there is no hidden global state in the dispatch layer.
#[test]
fn forced_backend_rerun_is_reproducible() {
    let (g, h) = setup(43);
    let backend = Backend::detect();
    let cfg = SamplerConfig::new(6)
        .with_seed(31)
        .with_simd(SimdPolicy::Force(backend));
    let run = |g: &Graph, h: &HeldOut| {
        let mut s = ParallelSampler::with_threads(g.clone(), h.clone(), cfg.clone(), 2).unwrap();
        s.run(5);
        let snap = snapshot(s.state());
        (snap, s.evaluate_perplexity().to_bits())
    };
    assert_eq!(run(&g, &h), run(&g, &h), "{backend}: rerun diverged");
}
