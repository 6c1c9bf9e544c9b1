//! Properties of the kernels every stage runs, on every backend this
//! host has — `Scalar` (one unfused lane of the same code) included.
//!
//! Test-only. These are the unit tests of the scalar kernel files that
//! `sampler/stage.rs` + `mmsb-simd` replaced, re-pointed at what survives:
//! [`phi_update`], [`theta_gradient`], [`update_theta`] and the
//! `mmsb_simd` entry points under them. The `phi::tests` / `theta::tests`
//! paths are the ones those tests have always had, so their ids did not
//! change when the code under them did.

use crate::config::available_backends;
use crate::sampler::engine::update_theta;
use crate::sampler::stage::{phi_update, theta_gradient, PhiParams, StageScratch};
use crate::state::PHI_MIN;
use mmsb_rand::{Rng, Xoshiro256PlusPlus};
use mmsb_simd::{Backend, PhiScratch};

mod phi {
    mod tests {
        use super::super::*;

        /// Reference log-likelihood: `sum_b log p(y_ab)` as a function of
        /// `phi_a`, used for finite-difference gradient checks.
        fn log_likelihood(
            phi_a: &[f64],
            beta: &[f64],
            rows: &[f32],
            linked: &[bool],
            delta: f64,
        ) -> f64 {
            let k = phi_a.len();
            let s: f64 = phi_a.iter().sum();
            let mut total = 0.0;
            for (pi_b, &y) in rows.chunks_exact(k).zip(linked) {
                let p_ne = if y { delta } else { 1.0 - delta };
                let mut z = 0.0;
                for c in 0..k {
                    let pi_ac = phi_a[c] / s;
                    let pi_bc = pi_b[c] as f64;
                    let p_eq = if y { beta[c] } else { 1.0 - beta[c] };
                    z += pi_ac * (p_eq * pi_bc + p_ne * (1.0 - pi_bc));
                }
                total += z.ln();
            }
            total
        }

        /// `(phi_a, beta, neighbor rows at stride k, observations)`.
        fn random_setup(
            k: usize,
            n_neighbors: usize,
            seed: u64,
        ) -> (Vec<f64>, Vec<f64>, Vec<f32>, Vec<bool>) {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
            let phi_a: Vec<f64> = (0..k).map(|_| 0.1 + rng.next_f64()).collect();
            let beta: Vec<f64> = (0..k).map(|_| 0.05 + 0.9 * rng.next_f64()).collect();
            let mut rows = Vec::with_capacity(n_neighbors * k);
            for _ in 0..n_neighbors {
                let raw: Vec<f64> = (0..k).map(|_| 0.05 + rng.next_f64()).collect();
                let s: f64 = raw.iter().sum();
                rows.extend(raw.iter().map(|&x| (x / s) as f32));
            }
            let linked: Vec<bool> = (0..n_neighbors).map(|_| rng.coin()).collect();
            (phi_a, beta, rows, linked)
        }

        fn gradient(
            backend: Backend,
            phi_a: &[f64],
            beta: &[f64],
            rows: &[f32],
            linked: &[bool],
            delta: f64,
        ) -> Vec<f64> {
            let k = phi_a.len();
            let mut grad = vec![9.0; k];
            mmsb_simd::phi_gradient(
                backend,
                phi_a,
                beta,
                rows,
                k,
                linked,
                delta,
                &mut PhiScratch::new(k),
                &mut grad,
            );
            grad
        }

        fn params(backend: Backend, n: u32, eps: f64) -> PhiParams {
            PhiParams {
                backend,
                n,
                alpha: 0.25,
                delta: 1e-4,
                eps,
            }
        }

        #[test]
        fn gradient_matches_finite_differences() {
            let (phi_a, beta, rows, linked) = random_setup(5, 7, 42);
            let delta = 0.01;
            let h = 1e-6;
            for backend in available_backends() {
                let grad = gradient(backend, &phi_a, &beta, &rows, &linked, delta);
                for c in 0..5 {
                    let mut plus = phi_a.clone();
                    plus[c] += h;
                    let mut minus = phi_a.clone();
                    minus[c] -= h;
                    let fd = (log_likelihood(&plus, &beta, &rows, &linked, delta)
                        - log_likelihood(&minus, &beta, &rows, &linked, delta))
                        / (2.0 * h);
                    assert!(
                        (grad[c] - fd).abs() < 1e-5 * (1.0 + fd.abs()),
                        "{backend} component {c}: analytic {} vs fd {fd}",
                        grad[c]
                    );
                }
            }
        }

        #[test]
        fn gradient_matches_unfused_two_pass_reference() {
            // The fused, software-pipelined kernel against the textbook
            // two-pass form of Eq. 6. The kernel's rearrangement
            // (`r_c / (Z * S)` instead of `f_c / (Z * phi_c)`) is exact
            // algebra, so they agree to rounding on every backend.
            for seed in 0..8u64 {
                let (phi_a, beta, rows, linked) = random_setup(6, 9, seed);
                let delta = 1e-4;
                let inv_s = 1.0 / phi_a.iter().sum::<f64>();
                let mut expect = [0.0f64; 6];
                let mut fk = [0.0f64; 6];
                for (pi_b, &y) in rows.chunks_exact(6).zip(&linked) {
                    let p_ne = if y { delta } else { 1.0 - delta };
                    let mut z = 0.0;
                    for c in 0..6 {
                        let pi_bc = pi_b[c] as f64;
                        let p_eq = if y { beta[c] } else { 1.0 - beta[c] };
                        fk[c] = phi_a[c] * inv_s * (p_eq * pi_bc + p_ne * (1.0 - pi_bc));
                        z += fk[c];
                    }
                    for c in 0..6 {
                        expect[c] += fk[c] / z / phi_a[c] - inv_s;
                    }
                }
                for backend in available_backends() {
                    let grad = gradient(backend, &phi_a, &beta, &rows, &linked, delta);
                    for c in 0..6 {
                        assert!(
                            (grad[c] - expect[c]).abs() < 1e-9 * (1.0 + expect[c].abs()),
                            "{backend} seed {seed} component {c}: {} vs {}",
                            grad[c],
                            expect[c]
                        );
                    }
                }
            }
        }

        #[test]
        fn gradient_zero_neighbors_is_zero() {
            let (phi_a, beta, _, _) = random_setup(4, 0, 1);
            for backend in available_backends() {
                let grad = gradient(backend, &phi_a, &beta, &[], &[], 0.01);
                assert_eq!(grad, vec![0.0; 4], "{backend}");
            }
        }

        #[test]
        fn update_keeps_phi_positive_and_finite() {
            let (phi_a, beta, rows, linked) = random_setup(6, 10, 7);
            for backend in available_backends() {
                let p = PhiParams {
                    alpha: 0.1,
                    delta: 1e-5,
                    ..params(backend, 1000, 0.01)
                };
                let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
                let mut scratch = StageScratch::new(6);
                let mut out = vec![0.0; 6];
                for _ in 0..200 {
                    phi_update(
                        &p, &beta, &phi_a, &rows, 6, &linked, &mut rng, &mut scratch, &mut out,
                    );
                    assert!(
                        out.iter().all(|&x| x >= PHI_MIN && x.is_finite()),
                        "{backend}: {out:?}"
                    );
                }
            }
        }

        #[test]
        fn update_is_deterministic_given_rng() {
            let (phi_a, beta, rows, linked) = random_setup(4, 5, 9);
            for backend in available_backends() {
                let p = params(backend, 250, 0.005);
                let mut scratch = StageScratch::new(4);
                let mut outs = [vec![0.0; 4], vec![0.0; 4]];
                for out in &mut outs {
                    let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
                    phi_update(&p, &beta, &phi_a, &rows, 4, &linked, &mut rng, &mut scratch, out);
                }
                assert_eq!(outs[0], outs[1], "{backend}");
            }
        }

        #[test]
        fn zero_step_size_freezes_state_modulo_prior() {
            // With eps = 0 both drift and noise vanish: phi* = phi.
            let (phi_a, beta, rows, linked) = random_setup(4, 5, 11);
            for backend in available_backends() {
                let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
                let mut out = vec![0.0; 4];
                phi_update(
                    &params(backend, 250, 0.0),
                    &beta,
                    &phi_a,
                    &rows,
                    4,
                    &linked,
                    &mut rng,
                    &mut StageScratch::new(4),
                    &mut out,
                );
                for (a, b) in out.iter().zip(&phi_a) {
                    assert!((a - b).abs() < 1e-15, "{backend}");
                }
            }
        }

        #[test]
        fn gradient_pulls_towards_linked_communities() {
            // One linked neighbor fully in community 0, high beta_0: the
            // gradient in component 0 should exceed the others.
            let phi_a = [1.0, 1.0, 1.0];
            let beta = [0.9, 0.9, 0.9];
            let rows = [0.98f32, 0.01, 0.01];
            for backend in available_backends() {
                let grad = gradient(backend, &phi_a, &beta, &rows, &[true], 1e-5);
                assert!(grad[0] > grad[1], "{backend}: {grad:?}");
                assert!(grad[0] > grad[2], "{backend}: {grad:?}");
            }
        }

        #[test]
        #[should_panic(expected = "neighbor row")]
        fn mismatched_observations_panic() {
            // Four observations, three neighbor rows.
            let (phi_a, beta, rows, _) = random_setup(4, 3, 13);
            gradient(Backend::detect(), &phi_a, &beta, &rows, &[true; 4], 0.01);
        }
    }
}

mod theta {
    mod tests {
        use super::super::*;

        /// Pair marginal log-likelihood as a function of theta (through
        /// beta), for finite-difference checks.
        fn log_z(pi_a: &[f32], pi_b: &[f32], y: bool, theta: &[f64], delta: f64) -> f64 {
            let p_ne = if y { delta } else { 1.0 - delta };
            let mut z = 0.0;
            for (c, t) in theta.chunks_exact(2).enumerate() {
                let beta_c = t[1] / (t[0] + t[1]);
                let p_eq = if y { beta_c } else { 1.0 - beta_c };
                let pa = pi_a[c] as f64;
                let pb = pi_b[c] as f64;
                z += p_eq * pa * pb + p_ne * pa * (1.0 - pb);
            }
            z.ln()
        }

        fn beta_of(theta: &[f64]) -> Vec<f64> {
            theta.chunks_exact(2).map(|t| t[1] / (t[0] + t[1])).collect()
        }

        fn random_setup(k: usize, seed: u64) -> (Vec<f32>, Vec<f32>, Vec<f64>) {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
            let simplex = |rng: &mut Xoshiro256PlusPlus| -> Vec<f32> {
                let raw: Vec<f64> = (0..k).map(|_| 0.05 + rng.next_f64()).collect();
                let s: f64 = raw.iter().sum();
                raw.iter().map(|&x| (x / s) as f32).collect()
            };
            let pi_a = simplex(&mut rng);
            let pi_b = simplex(&mut rng);
            let theta: Vec<f64> = (0..2 * k).map(|_| 0.5 + 2.0 * rng.next_f64()).collect();
            (pi_a, pi_b, theta)
        }

        /// The gradient of `times` copies of one pair.
        #[allow(clippy::too_many_arguments)] // test shorthand for the stage call
        fn gradient(
            backend: Backend,
            pi_a: &[f32],
            pi_b: &[f32],
            y: bool,
            weight: f64,
            times: usize,
            theta: &[f64],
            delta: f64,
        ) -> Vec<f64> {
            let k = theta.len() / 2;
            let mut grad = vec![9.0; 2 * k];
            theta_gradient(
                backend,
                &beta_of(theta),
                theta,
                delta,
                (0..times).map(|_| (pi_a, pi_b, y, weight)),
                &mut StageScratch::new(k),
                &mut grad,
            );
            grad
        }

        #[test]
        fn gradient_matches_finite_differences() {
            let delta = 0.01;
            let h = 1e-6;
            for backend in available_backends() {
                for (seed, y) in [(1u64, true), (2, false)] {
                    let (pi_a, pi_b, theta) = random_setup(4, seed);
                    let grad = gradient(backend, &pi_a, &pi_b, y, 1.0, 1, &theta, delta);
                    for j in 0..8 {
                        let mut plus = theta.clone();
                        plus[j] += h;
                        let mut minus = theta.clone();
                        minus[j] -= h;
                        let fd = (log_z(&pi_a, &pi_b, y, &plus, delta)
                            - log_z(&pi_a, &pi_b, y, &minus, delta))
                            / (2.0 * h);
                        assert!(
                            (grad[j] - fd).abs() < 1e-5 * (1.0 + fd.abs()),
                            "{backend} y={y} component {j}: analytic {} vs fd {fd}",
                            grad[j]
                        );
                    }
                }
            }
        }

        #[test]
        fn weight_scales_linearly() {
            let (pi_a, pi_b, theta) = random_setup(3, 9);
            for backend in available_backends() {
                let unit = gradient(backend, &pi_a, &pi_b, true, 1.0, 1, &theta, 0.01);
                let scaled = gradient(backend, &pi_a, &pi_b, true, 5.0, 1, &theta, 0.01);
                for (u, s) in unit.iter().zip(&scaled) {
                    assert!((5.0 * u - s).abs() < 1e-12, "{backend}");
                }
            }
        }

        #[test]
        fn gradient_accumulates_across_pairs() {
            let (pi_a, pi_b, theta) = random_setup(3, 5);
            for backend in available_backends() {
                let once = gradient(backend, &pi_a, &pi_b, true, 1.0, 1, &theta, 0.01);
                let twice = gradient(backend, &pi_a, &pi_b, true, 1.0, 2, &theta, 0.01);
                for (o, t) in once.iter().zip(&twice) {
                    assert!((2.0 * o - t).abs() < 1e-12, "{backend}");
                }
            }
        }

        #[test]
        fn link_observation_pushes_beta_up() {
            // After many positive updates on a linked pair concentrated in
            // community 0, beta_0 should grow.
            let pi = [0.95f32, 0.05];
            for backend in available_backends() {
                let mut theta = vec![1.0, 1.0, 1.0, 1.0];
                let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
                for _ in 0..300 {
                    let grad = gradient(backend, &pi, &pi, true, 50.0, 1, &theta, 1e-5);
                    update_theta(&mut theta, &grad, (1.0, 1.0), 0.005, &mut rng);
                }
                let beta0 = theta[1] / (theta[0] + theta[1]);
                assert!(beta0 > 0.7, "{backend}: beta0 = {beta0}");
            }
        }

        #[test]
        fn update_keeps_theta_positive() {
            let mut theta = vec![0.001, 2.0, 5.0, 0.01];
            let grad = vec![-1000.0, 1000.0, -50.0, 30.0];
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
            for _ in 0..100 {
                update_theta(&mut theta, &grad, (1.0, 1.0), 0.01, &mut rng);
                assert!(theta.iter().all(|&t| t >= PHI_MIN && t.is_finite()));
            }
        }

        #[test]
        #[should_panic(expected = "length mismatch")]
        fn update_rejects_mismatched_grad() {
            let mut theta = vec![1.0, 1.0];
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
            update_theta(&mut theta, &[0.0], (1.0, 1.0), 0.01, &mut rng);
        }

        #[test]
        fn deterministic_given_rng() {
            let mut t1 = vec![1.0, 2.0];
            let mut t2 = vec![1.0, 2.0];
            let grad = vec![1.0, -1.0];
            let mut r1 = Xoshiro256PlusPlus::seed_from_u64(4);
            let mut r2 = Xoshiro256PlusPlus::seed_from_u64(4);
            update_theta(&mut t1, &grad, (1.0, 1.0), 0.01, &mut r1);
            update_theta(&mut t2, &grad, (1.0, 1.0), 0.01, &mut r2);
            assert_eq!(t1, t2);
        }
    }
}
