//! Bitwise parity: every intrinsic backend must reproduce, bit for
//! bit, the portable `Lanes<W, FUSED>` emulation of its lane width and
//! fusedness, across community counts that exercise full vectors,
//! tails, and scalar-only paths (K ∈ {1, 3, 4, 7, 8, 16, 33}) and
//! degenerate neighbor sets (degree 0, 1, and odd counts).
//!
//! This is the testable half of the determinism contract: the
//! emulation *is* the documented operation order, and IEEE-754 basic
//! ops plus `mul_add` are exactly rounded, so if the hardware path
//! matches the emulation here it matches on every conforming CPU.

use mmsb_simd::lanes::Lanes;
use mmsb_simd::phi::{phi_gradient_with, sgrld_step_with};
use mmsb_simd::theta::theta_accumulate_pair_with;
use mmsb_simd::{
    phi_gradient, sgrld_step, theta_accumulate_pair, theta_chunk_begin, theta_chunk_finish, vln,
    Backend, PhiScratch, ThetaScratch,
};

const KS: [usize; 7] = [1, 3, 4, 7, 8, 16, 33];
const DEGREES: [usize; 4] = [0, 1, 5, 9];

/// Deterministic seeded generator (xorshift64*) — no external deps.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    fn f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
    fn bool(&mut self) -> bool {
        self.f64() > 0.5
    }
}

struct PhiCase {
    phi_a: Vec<f64>,
    beta: Vec<f64>,
    rows: Vec<f32>,
    linked: Vec<bool>,
}

fn phi_case(k: usize, degree: usize, seed: u64) -> PhiCase {
    let mut g = Gen::new(seed);
    PhiCase {
        phi_a: (0..k).map(|_| 0.05 + 2.0 * g.f64()).collect(),
        beta: (0..k).map(|_| 0.05 + 0.9 * g.f64()).collect(),
        rows: (0..degree * k).map(|_| (0.02 + g.f64()) as f32).collect(),
        linked: (0..degree).map(|_| g.bool()).collect(),
    }
}

/// (intrinsic backend, matching emulated gradient fn) pairs available
/// on this host. Each runs the *same* generic kernel, once through the
/// backend dispatcher (intrinsics) and once through `Lanes<W, FUSED>`.
fn backends() -> Vec<Backend> {
    [Backend::Avx2, Backend::Neon]
        .into_iter()
        .filter(|b| b.available())
        .collect()
}

fn emulated_phi(b: Backend, case: &PhiCase, k: usize, scratch: &mut PhiScratch) -> Vec<f64> {
    let mut out = vec![0.0f64; k];
    match (b.lanes(), b.fused()) {
        (2, true) => phi_gradient_with(
            Lanes::<2, true>,
            &case.phi_a,
            &case.beta,
            &case.rows,
            k,
            &case.linked,
            1e-4,
            scratch,
            &mut out,
        ),
        (4, true) => phi_gradient_with(
            Lanes::<4, true>,
            &case.phi_a,
            &case.beta,
            &case.rows,
            k,
            &case.linked,
            1e-4,
            scratch,
            &mut out,
        ),
        other => unreachable!("no emulation for backend shape {other:?}"),
    }
    out
}

#[test]
fn phi_gradient_bitwise_matches_emulation_per_lane_width() {
    for b in backends() {
        for &k in &KS {
            for &degree in &DEGREES {
                let case = phi_case(k, degree, (k * 1009 + degree) as u64);
                let mut scratch = PhiScratch::new(k);
                let mut hw = vec![0.0f64; k];
                phi_gradient(
                    b,
                    &case.phi_a,
                    &case.beta,
                    &case.rows,
                    k,
                    &case.linked,
                    1e-4,
                    &mut scratch,
                    &mut hw,
                );
                let emul = emulated_phi(b, &case, k, &mut scratch);
                for c in 0..k {
                    assert_eq!(
                        hw[c].to_bits(),
                        emul[c].to_bits(),
                        "{b} k={k} degree={degree} c={c}: {} vs {}",
                        hw[c],
                        emul[c]
                    );
                }
            }
        }
    }
}

#[test]
fn phi_gradient_is_reproducible_within_backend() {
    // Same backend + inputs => identical bytes, run to run.
    for b in backends() {
        let case = phi_case(33, 9, 42);
        let mut scratch = PhiScratch::new(33);
        let mut a = vec![0.0f64; 33];
        let mut c = vec![0.0f64; 33];
        for out in [&mut a, &mut c] {
            phi_gradient(
                b,
                &case.phi_a,
                &case.beta,
                &case.rows,
                33,
                &case.linked,
                1e-4,
                &mut scratch,
                out,
            );
        }
        assert!(
            a.iter().zip(&c).all(|(x, y)| x.to_bits() == y.to_bits()),
            "{b} not reproducible"
        );
    }
}

#[test]
fn sgrld_step_bitwise_matches_emulation_per_lane_width() {
    for b in backends() {
        for &k in &KS {
            let mut g = Gen::new(k as u64 + 7);
            let phi_a: Vec<f64> = (0..k).map(|_| 0.05 + 2.0 * g.f64()).collect();
            let noise: Vec<f64> = (0..k).map(|_| 3.0 * (g.f64() - 0.5)).collect();
            let grad0: Vec<f64> = (0..k).map(|_| 10.0 * (g.f64() - 0.5)).collect();
            let args = (0.1, 0.0025, 117.0, 0.070710678, 1e-10);
            let mut hw = grad0.clone();
            sgrld_step(
                b, &phi_a, &noise, args.0, args.1, args.2, args.3, args.4, &mut hw,
            );
            let mut emul = grad0.clone();
            match (b.lanes(), b.fused()) {
                (2, true) => sgrld_step_with(
                    Lanes::<2, true>,
                    &phi_a,
                    &noise,
                    args.0,
                    args.1,
                    args.2,
                    args.3,
                    args.4,
                    &mut emul,
                ),
                (4, true) => sgrld_step_with(
                    Lanes::<4, true>,
                    &phi_a,
                    &noise,
                    args.0,
                    args.1,
                    args.2,
                    args.3,
                    args.4,
                    &mut emul,
                ),
                other => unreachable!("no emulation for backend shape {other:?}"),
            }
            for c in 0..k {
                assert_eq!(
                    hw[c].to_bits(),
                    emul[c].to_bits(),
                    "{b} k={k} c={c}: {} vs {}",
                    hw[c],
                    emul[c]
                );
            }
        }
    }
}

#[test]
fn theta_chunk_bitwise_matches_emulation_per_lane_width() {
    for b in backends() {
        for &k in &KS {
            let mut g = Gen::new(k as u64 * 31 + 5);
            let theta: Vec<f64> = (0..2 * k).map(|_| 0.5 + 2.0 * g.f64()).collect();
            let beta: Vec<f64> = (0..k)
                .map(|c| theta[2 * c + 1] / (theta[2 * c] + theta[2 * c + 1]))
                .collect();
            let pairs: Vec<(Vec<f32>, Vec<f32>, bool, f64)> = (0..7)
                .map(|_| {
                    (
                        (0..k).map(|_| (0.02 + g.f64()) as f32).collect(),
                        (0..k).map(|_| (0.02 + g.f64()) as f32).collect(),
                        g.bool(),
                        0.5 + 3.0 * g.f64(),
                    )
                })
                .collect();
            let delta = 1e-4;

            let mut scratch = ThetaScratch::new(k);
            theta_chunk_begin(&beta, &theta, delta, &mut scratch);
            for (pa, pb, y, wt) in &pairs {
                theta_accumulate_pair(b, &mut scratch, pa, pb, *y, *wt);
            }
            let mut hw = vec![0.0f64; 2 * k];
            theta_chunk_finish(&scratch, &mut hw);

            theta_chunk_begin(&beta, &theta, delta, &mut scratch);
            for (pa, pb, y, wt) in &pairs {
                match (b.lanes(), b.fused()) {
                    (2, true) => {
                        theta_accumulate_pair_with(Lanes::<2, true>, &mut scratch, pa, pb, *y, *wt)
                    }
                    (4, true) => {
                        theta_accumulate_pair_with(Lanes::<4, true>, &mut scratch, pa, pb, *y, *wt)
                    }
                    other => unreachable!("no emulation for backend shape {other:?}"),
                }
            }
            let mut emul = vec![0.0f64; 2 * k];
            theta_chunk_finish(&scratch, &mut emul);

            for j in 0..2 * k {
                assert_eq!(
                    hw[j].to_bits(),
                    emul[j].to_bits(),
                    "{b} k={k} j={j}: {} vs {}",
                    hw[j],
                    emul[j]
                );
            }
        }
    }
}

#[test]
fn exp_ln_bitwise_match_emulation_per_backend() {
    let mut g = Gen::new(1234);
    let mut xs: Vec<f64> = (0..4097).map(|_| 1400.0 * (g.f64() - 0.5)).collect();
    xs.extend([
        0.0,
        -0.0,
        1.0,
        f64::NAN,
        f64::INFINITY,
        1e-310,
        750.0,
        -750.0,
    ]);
    for b in backends() {
        let mut hw = vec![0.0; xs.len()];
        let mut emul = vec![0.0; xs.len()];
        vln(b, &xs, &mut hw);
        match (b.lanes(), b.fused()) {
            (2, true) => mmsb_simd::math::vln_with(Lanes::<2, true>, &xs, &mut emul),
            (4, true) => mmsb_simd::math::vln_with(Lanes::<4, true>, &xs, &mut emul),
            other => unreachable!("no emulation for backend shape {other:?}"),
        }
        for (i, &x) in xs.iter().enumerate() {
            assert!(
                hw[i].to_bits() == emul[i].to_bits() || (hw[i].is_nan() && emul[i].is_nan()),
                "{b} ln({x}): {} vs {}",
                hw[i],
                emul[i]
            );
        }
    }
}
