//! Micro-benches for the numerical kernels — the measured counterparts
//! of the per-phase numbers in Figure 1 and Table III. Runs on the
//! in-tree timing harness (`mmsb_bench::timing`).

use mmsb::prelude::*;
use mmsb::rand::dist::Normal;
use mmsb_bench::timing::{black_box, Suite};
use mmsb_simd::{PhiScratch, ThetaScratch};

fn simplex_row(rng: &mut Xoshiro256PlusPlus, k: usize) -> Vec<f32> {
    let raw: Vec<f64> = (0..k).map(|_| 0.05 + rng.next_f64()).collect();
    let s: f64 = raw.iter().sum();
    raw.iter().map(|&x| (x / s) as f32).collect()
}

/// One vertex's `update_phi` as `mmsb_core` composes it from the
/// `mmsb_simd` entry points: gradient, `K` polar draws, vectorized normal
/// finish, SGRLD step — on the detected backend.
fn bench_update_phi(suite: &mut Suite) {
    let backend = Backend::detect();
    for k in [16usize, 64, 256] {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let n_neighbors = 32;
        let phi_a: Vec<f64> = (0..k).map(|_| 0.1 + rng.next_f64()).collect();
        let beta: Vec<f64> = (0..k).map(|_| 0.05 + 0.9 * rng.next_f64()).collect();
        let rows: Vec<f32> = (0..n_neighbors)
            .flat_map(|_| simplex_row(&mut rng, k))
            .collect();
        let linked: Vec<bool> = (0..n_neighbors).map(|_| rng.coin()).collect();
        let (alpha, delta, eps, grad_scale) = (1.0 / k as f64, 1e-5, 0.01f64, 100.0);
        let mut scratch = PhiScratch::new(k);
        let (mut u, mut s) = (vec![0.0f64; k], vec![0.0f64; k]);
        let mut noise = vec![0.0f64; k];
        let mut out = vec![0.0f64; k];
        suite.bench(&format!("update_phi_row/{k}"), || {
            mmsb_simd::phi_gradient(
                backend,
                black_box(&phi_a),
                black_box(&beta),
                &rows,
                k,
                &linked,
                delta,
                &mut scratch,
                &mut out,
            );
            for (u, s) in u.iter_mut().zip(&mut s) {
                (*u, *s) = Normal::standard_accept(&mut rng);
            }
            mmsb_simd::polar_normal(backend, &u, &s, &mut noise);
            mmsb_simd::sgrld_step(
                backend,
                &phi_a,
                &noise,
                alpha,
                0.5 * eps,
                grad_scale,
                eps.sqrt(),
                mmsb::core::PHI_MIN,
                &mut out,
            );
            black_box(&out);
        });
    }
}

fn bench_theta(suite: &mut Suite) {
    let backend = Backend::detect();
    for k in [16usize, 64, 256] {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        let pi_a = simplex_row(&mut rng, k);
        let pi_b = simplex_row(&mut rng, k);
        let theta: Vec<f64> = (0..2 * k).map(|_| 0.5 + rng.next_f64()).collect();
        let beta: Vec<f64> = (0..k)
            .map(|c| theta[2 * c + 1] / (theta[2 * c] + theta[2 * c + 1]))
            .collect();
        let mut scratch = ThetaScratch::new(k);
        mmsb_simd::theta_chunk_begin(&beta, &theta, 1e-5, &mut scratch);
        suite.bench(&format!("theta/gradient_pair/{k}"), || {
            mmsb_simd::theta_accumulate_pair(
                backend,
                &mut scratch,
                black_box(&pi_a),
                black_box(&pi_b),
                true,
                100.0,
            );
        });
        let mut grad = vec![0.0f64; 2 * k];
        mmsb_simd::theta_chunk_finish(&scratch, &mut grad);
        black_box(&grad);
    }
}

fn bench_perplexity(suite: &mut Suite) {
    for k in [16usize, 64, 256] {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let pi_a = simplex_row(&mut rng, k);
        let pi_b = simplex_row(&mut rng, k);
        let beta: Vec<f64> = (0..k).map(|_| rng.next_f64()).collect();
        suite.bench(&format!("link_probability/{k}"), || {
            black_box(link_probability(
                black_box(&pi_a),
                black_box(&pi_b),
                &beta,
                1e-5,
                true,
            ))
        });
    }
}

fn main() {
    let mut suite = Suite::from_args("kernels");
    bench_update_phi(&mut suite);
    bench_theta(&mut suite);
    bench_perplexity(&mut suite);
    suite.finish();
}
