//! Vectorized phi kernels: the fused f/Z/out gradient pass (Eq. 6) and
//! the SGRLD row update (Eq. 5).
//!
//! # Numeric contract
//!
//! These are the only phi kernels in the workspace: `mmsb-core` runs them
//! on every backend, `Backend::Scalar` being the one-lane unfused
//! instantiation. They compute Eq. 5/6 in a rearranged form (the
//! textbook two-pass evaluation order survives as the `legacy_gradient`
//! test reference below): the inner factor is evaluated in the
//! algebraically rearranged form `r_c = fma(coef_c, pi_bc, p_ne)` with
//! `coef_c = ±(beta_c - delta)` precomputed per sign (one fma instead
//! of two multiplies and two adds); the pair normalizer accumulates
//! `Z = sum_c pi_ac * r_c` as an fma chain; and because
//! `pi_ac / phi_ac = 1/S` exactly as real numbers, the per-community
//! quotient `f_c / (Z * phi_ac)` collapses to `r_c / (Z * S)` — the
//! kernel therefore accumulates `sum_i r_ic / Z_i` across neighbors
//! and applies `(acc_c - n) / S` once at the end instead of dividing
//! by `phi_ac` in the inner loop. Per-pair normalizers reduce in the
//! butterfly order documented in [`crate::lanes`]. Results therefore
//! differ from the textbook form — and between lane widths — in the
//! last ulps but are bitwise-deterministic **per backend**: the same
//! backend, inputs, and seed reproduce identical bytes at any thread
//! count, and each intrinsic backend is pinned bitwise against its
//! matching [`Lanes`](crate::lanes::Lanes) emulation.
//!
//! The rearrangement is exact algebra on the pair likelihood:
//! `p_eq * pi_b + p_ne * (1 - pi_b) = p_ne + (p_eq - p_ne) * pi_b`,
//! with `p_eq - p_ne = beta - delta` for linked pairs and
//! `delta - beta` for non-links.

use crate::backend::Backend;
use crate::lanes::{sfma, smax, LaneF64, ScalarLanes};

/// Reusable scratch for [`phi_gradient`]: five `K`-sized planes
/// (`pi_a`, the two signed coefficient planes `±(beta - delta)`, and
/// the two ping-pong `r` halves), grown once and never shrunk so
/// steady-state calls are allocation-free.
#[derive(Debug, Clone, Default)]
pub struct PhiScratch {
    buf: Vec<f64>,
}

impl PhiScratch {
    /// Scratch pre-sized for community count `k`.
    pub fn new(k: usize) -> Self {
        let mut s = Self::default();
        s.ensure(k);
        s
    }

    /// Grow (never shrink) to hold planes for community count `k`.
    pub fn ensure(&mut self, k: usize) {
        let need = 5 * k;
        if self.buf.len() < need {
            self.buf.resize(need, 0.0);
        }
    }

    /// Split into (`pi_a`, `beta - delta`, `delta - beta`, `r` ping-pong).
    // xlint: allow(hot-path-panic) — ensure(k) grows buf to at least 5 * k before any caller reaches this split
    fn parts(&mut self, k: usize) -> (&mut [f64], &mut [f64], &mut [f64], &mut [f64]) {
        let (pia, rest) = self.buf[..5 * k].split_at_mut(k);
        let (cdiff, rest) = rest.split_at_mut(k);
        let (ncdiff, rbuf) = rest.split_at_mut(k);
        (pia, cdiff, ncdiff, rbuf)
    }
}

/// Width-generic fused f/Z/out pass; see the module docs for the
/// numeric contract. `rows` holds `linked.len()` neighbor `pi_b` rows
/// of `stride >= K` f32s each; `out` is overwritten with the gradient.
// xlint: allow(hot-path-panic) — scratch planes are sized to k by PhiScratch::ensure, rows are stride >= k apart (asserted on entry), and every loop stops before k
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub fn phi_gradient_with<L: LaneF64>(
    l: L,
    phi_a: &[f64],
    beta: &[f64],
    rows: &[f32],
    stride: usize,
    linked: &[bool],
    delta: f64,
    scratch: &mut PhiScratch,
    out: &mut [f64],
) {
    let k = phi_a.len();
    assert_eq!(beta.len(), k, "beta dimension mismatch");
    assert_eq!(out.len(), k, "gradient buffer dimension mismatch");
    assert!(stride >= k, "row stride must cover K communities");
    assert!(
        linked.is_empty() || rows.len() >= (linked.len() - 1) * stride + k,
        "each neighbor row needs K pi values"
    );
    scratch.ensure(k);

    let s: f64 = phi_a.iter().sum();
    debug_assert!(s > 0.0, "phi row must be positive");
    let inv_s = 1.0 / s;
    let (pia, cdiff, ncdiff, rbuf) = scratch.parts(k);

    let w = L::LANES;
    let vinv_s = l.splat(inv_s);
    let vdelta = l.splat(delta);
    let mut c = 0;
    while c + w <= k {
        let vphi = l.load(phi_a, c);
        l.store(l.mul(vphi, vinv_s), pia, c);
        let d = l.sub(l.load(beta, c), vdelta);
        l.store(d, cdiff, c);
        l.store(l.sub(l.zero(), d), ncdiff, c);
        c += w;
    }
    while c < k {
        pia[c] = phi_a[c] * inv_s;
        cdiff[c] = beta[c] - delta;
        ncdiff[c] = 0.0 - cdiff[c];
        c += 1;
    }

    // `out` accumulates `sum_i r_ic / Z_i`; the drain below rescales it
    // to the gradient `(acc_c - n) / S` in one pass.
    out.fill(0.0);
    let (mut cur, mut prev) = rbuf.split_at_mut(k);
    let mut prev_inv_z = 0.0f64;
    let mut have_prev = false;
    for (i, &y) in linked.iter().enumerate() {
        let row = &rows[i * stride..i * stride + k];
        let (p_ne, coefs) = if y {
            (delta, &*cdiff)
        } else {
            (1.0 - delta, &*ncdiff)
        };
        let vpne = l.splat(p_ne);
        let mut zacc = l.zero();
        let mut z;
        let mut c = 0;
        if have_prev {
            // Software-pipelined: this neighbor's r/Z pass also folds the
            // previous neighbor's finished contribution into `out`.
            let vpiz = l.splat(prev_inv_z);
            while c + w <= k {
                let pib = l.load_f32(row, c);
                let rc = l.fma(l.load(coefs, c), pib, vpne);
                l.store(rc, cur, c);
                zacc = l.fma(l.load(pia, c), rc, zacc);
                l.store(l.fma(l.load(prev, c), vpiz, l.load(out, c)), out, c);
                c += w;
            }
            // Butterfly the vector accumulator, then tail elements in
            // ascending index order — the documented reduction order.
            z = l.hsum(zacc);
            while c < k {
                let rc = sfma::<L>(coefs[c], row[c] as f64, p_ne);
                cur[c] = rc;
                z = sfma::<L>(pia[c], rc, z);
                out[c] = sfma::<L>(prev[c], prev_inv_z, out[c]);
                c += 1;
            }
        } else {
            while c + w <= k {
                let pib = l.load_f32(row, c);
                let rc = l.fma(l.load(coefs, c), pib, vpne);
                l.store(rc, cur, c);
                zacc = l.fma(l.load(pia, c), rc, zacc);
                c += w;
            }
            z = l.hsum(zacc);
            while c < k {
                let rc = sfma::<L>(coefs[c], row[c] as f64, p_ne);
                cur[c] = rc;
                z = sfma::<L>(pia[c], rc, z);
                c += 1;
            }
        }
        debug_assert!(z > 0.0, "pair marginal must be positive");
        prev_inv_z = 1.0 / z;
        have_prev = true;
        core::mem::swap(&mut cur, &mut prev);
    }
    // Drain the pipeline: fold the last neighbor's contribution and
    // rescale the accumulator to the gradient in the same pass.
    if have_prev {
        let n = linked.len() as f64;
        let vn = l.splat(n);
        let vpiz = l.splat(prev_inv_z);
        let mut c = 0;
        while c + w <= k {
            let acc = l.fma(l.load(prev, c), vpiz, l.load(out, c));
            l.store(l.mul(l.sub(acc, vn), vinv_s), out, c);
            c += w;
        }
        while c < k {
            let acc = sfma::<L>(prev[c], prev_inv_z, out[c]);
            out[c] = (acc - n) * inv_s;
            c += 1;
        }
    }
}

/// Width-generic SGRLD row update (Eq. 5): `grad` holds the gradient on
/// entry and the clamped next `phi` row on exit. `noise` holds one
/// pre-drawn standard-normal variate per community (drawn in
/// coordinate order, so the RNG stream matches the scalar kernel).
// xlint: allow(hot-path-panic) — phi_a/noise/grad are all length k (caller contract) and every loop stops before k
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub fn sgrld_step_with<L: LaneF64>(
    l: L,
    phi_a: &[f64],
    noise: &[f64],
    alpha: f64,
    half_eps: f64,
    grad_scale: f64,
    noise_scale: f64,
    floor: f64,
    grad: &mut [f64],
) {
    let k = phi_a.len();
    assert_eq!(grad.len(), k, "gradient dimension mismatch");
    assert_eq!(noise.len(), k, "noise dimension mismatch");
    let w = L::LANES;
    let valpha = l.splat(alpha);
    let vhe = l.splat(half_eps);
    let vgs = l.splat(grad_scale);
    let vns = l.splat(noise_scale);
    let vfloor = l.splat(floor);
    let mut c = 0;
    while c + w <= k {
        let vphi = l.load(phi_a, c);
        let u = l.fma(vgs, l.load(grad, c), l.sub(valpha, vphi));
        let v = l.fma(vhe, u, vphi);
        let m = l.mul(l.sqrt(vphi), vns);
        let next = l.fma(m, l.load(noise, c), v);
        l.store(l.max(l.abs(next), vfloor), grad, c);
        c += w;
    }
    while c < k {
        let u = sfma::<L>(grad_scale, grad[c], alpha - phi_a[c]);
        let v = sfma::<L>(half_eps, u, phi_a[c]);
        let m = phi_a[c].sqrt() * noise_scale;
        let next = sfma::<L>(m, noise[c], v);
        debug_assert!(next.is_finite(), "phi update produced {next}");
        grad[c] = smax(next.abs(), floor);
        c += 1;
    }
}

/// Backend-dispatched [`phi_gradient_with`].
#[allow(clippy::too_many_arguments)]
pub fn phi_gradient(
    backend: Backend,
    phi_a: &[f64],
    beta: &[f64],
    rows: &[f32],
    stride: usize,
    linked: &[bool],
    delta: f64,
    scratch: &mut PhiScratch,
    out: &mut [f64],
) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if backend.available() => {
            // SAFETY: availability of avx2+fma was just re-verified on
            // the running CPU, discharging the target-feature contract.
            unsafe {
                crate::x86::phi_gradient_avx2(
                    phi_a, beta, rows, stride, linked, delta, scratch, out,
                )
            }
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => phi_gradient_with(
            crate::x86::Sse2Lanes::mint(),
            phi_a,
            beta,
            rows,
            stride,
            linked,
            delta,
            scratch,
            out,
        ),
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => phi_gradient_with(
            crate::neon::NeonLanes::mint(),
            phi_a,
            beta,
            rows,
            stride,
            linked,
            delta,
            scratch,
            out,
        ),
        _ => phi_gradient_with(
            ScalarLanes::default(),
            phi_a,
            beta,
            rows,
            stride,
            linked,
            delta,
            scratch,
            out,
        ),
    }
}

/// Backend-dispatched [`sgrld_step_with`].
#[allow(clippy::too_many_arguments)]
pub fn sgrld_step(
    backend: Backend,
    phi_a: &[f64],
    noise: &[f64],
    alpha: f64,
    half_eps: f64,
    grad_scale: f64,
    noise_scale: f64,
    floor: f64,
    grad: &mut [f64],
) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if backend.available() => {
            // SAFETY: availability of avx2+fma was just re-verified on
            // the running CPU, discharging the target-feature contract.
            unsafe {
                crate::x86::sgrld_step_avx2(
                    phi_a,
                    noise,
                    alpha,
                    half_eps,
                    grad_scale,
                    noise_scale,
                    floor,
                    grad,
                )
            }
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => sgrld_step_with(
            crate::x86::Sse2Lanes::mint(),
            phi_a,
            noise,
            alpha,
            half_eps,
            grad_scale,
            noise_scale,
            floor,
            grad,
        ),
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => sgrld_step_with(
            crate::neon::NeonLanes::mint(),
            phi_a,
            noise,
            alpha,
            half_eps,
            grad_scale,
            noise_scale,
            floor,
            grad,
        ),
        _ => sgrld_step_with(
            ScalarLanes::default(),
            phi_a,
            noise,
            alpha,
            half_eps,
            grad_scale,
            noise_scale,
            floor,
            grad,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::Lanes;

    /// Naive two-pass scalar reference in the textbook evaluation order
    /// of Eq. 6 (the numerics of the scalar kernel `mmsb-core` carried
    /// until the stacks were merged).
    fn legacy_gradient(
        phi_a: &[f64],
        beta: &[f64],
        rows: &[f32],
        stride: usize,
        linked: &[bool],
        delta: f64,
    ) -> Vec<f64> {
        let k = phi_a.len();
        let s: f64 = phi_a.iter().sum();
        let inv_s = 1.0 / s;
        let mut out = vec![0.0f64; k];
        let mut fk = vec![0.0f64; k];
        for (i, &y) in linked.iter().enumerate() {
            let row = &rows[i * stride..i * stride + k];
            let p_ne = if y { delta } else { 1.0 - delta };
            let mut z = 0.0;
            for c in 0..k {
                let p_eq = if y { beta[c] } else { 1.0 - beta[c] };
                let pib = row[c] as f64;
                let fc = phi_a[c] * inv_s * (p_eq * pib + p_ne * (1.0 - pib));
                fk[c] = fc;
                z += fc;
            }
            for c in 0..k {
                out[c] += fk[c] / z / phi_a[c] - inv_s;
            }
        }
        out
    }

    fn setup(k: usize, n: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f32>, Vec<bool>) {
        // Tiny xorshift so the unit test needs no external RNG crate.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let phi_a: Vec<f64> = (0..k).map(|_| 0.1 + next()).collect();
        let beta: Vec<f64> = (0..k).map(|_| 0.05 + 0.9 * next()).collect();
        let rows: Vec<f32> = (0..n * k).map(|_| (0.05 + next()) as f32).collect();
        let linked: Vec<bool> = (0..n).map(|_| next() > 0.5).collect();
        (phi_a, beta, rows, linked)
    }

    #[test]
    fn gradient_close_to_legacy_reference_all_widths() {
        for &(k, n) in &[(1usize, 3usize), (3, 5), (4, 4), (7, 9), (8, 1), (16, 6), (33, 7)] {
            let (phi_a, beta, rows, linked) = setup(k, n, (k * 31 + n) as u64);
            let expect = legacy_gradient(&phi_a, &beta, &rows, k, &linked, 1e-4);
            let mut scratch = PhiScratch::new(k);
            for width_tag in 0..3 {
                let mut got = vec![0.0f64; k];
                match width_tag {
                    0 => phi_gradient_with(
                        Lanes::<1, false>, &phi_a, &beta, &rows, k, &linked, 1e-4, &mut scratch,
                        &mut got,
                    ),
                    1 => phi_gradient_with(
                        Lanes::<2, true>, &phi_a, &beta, &rows, k, &linked, 1e-4, &mut scratch,
                        &mut got,
                    ),
                    _ => phi_gradient_with(
                        Lanes::<4, true>, &phi_a, &beta, &rows, k, &linked, 1e-4, &mut scratch,
                        &mut got,
                    ),
                }
                for c in 0..k {
                    let tol = 1e-9 * (1.0 + expect[c].abs());
                    assert!(
                        (got[c] - expect[c]).abs() < tol,
                        "k={k} n={n} width_tag={width_tag} c={c}: {} vs {}",
                        got[c],
                        expect[c]
                    );
                }
            }
        }
    }

    #[test]
    fn gradient_zero_neighbors_is_zero() {
        let (phi_a, beta, _, _) = setup(4, 0, 1);
        let mut scratch = PhiScratch::new(4);
        let mut out = vec![9.0f64; 4];
        phi_gradient(
            Backend::detect(),
            &phi_a,
            &beta,
            &[],
            4,
            &[],
            0.01,
            &mut scratch,
            &mut out,
        );
        assert_eq!(out, vec![0.0; 4]);
    }

    #[test]
    fn dispatched_backends_match_their_emulation_shape() {
        // Full bitwise parity lives in tests/parity.rs; this is the
        // cheap in-crate smoke: dispatch never panics and agrees with
        // the scalar path to tolerance on every available backend.
        let (phi_a, beta, rows, linked) = setup(16, 8, 99);
        let mut scratch = PhiScratch::new(16);
        let mut reference = vec![0.0f64; 16];
        phi_gradient(
            Backend::Scalar, &phi_a, &beta, &rows, 16, &linked, 1e-4, &mut scratch, &mut reference,
        );
        for b in [Backend::Sse2, Backend::Avx2, Backend::Neon, Backend::detect()] {
            if !b.available() {
                continue;
            }
            let mut got = vec![0.0f64; 16];
            phi_gradient(b, &phi_a, &beta, &rows, 16, &linked, 1e-4, &mut scratch, &mut got);
            for c in 0..16 {
                assert!(
                    (got[c] - reference[c]).abs() < 1e-9 * (1.0 + reference[c].abs()),
                    "backend {b} c={c}"
                );
            }
        }
    }

    #[test]
    fn sgrld_step_keeps_phi_positive_and_floored() {
        let (phi_a, _, _, _) = setup(13, 0, 5);
        let noise: Vec<f64> = (0..13).map(|i| ((i as f64) - 6.0) * 0.7).collect();
        let mut grad: Vec<f64> = (0..13).map(|i| (i as f64) - 8.0).collect();
        sgrld_step(
            Backend::detect(),
            &phi_a,
            &noise,
            0.1,
            0.005,
            50.0,
            0.1,
            1e-10,
            &mut grad,
        );
        assert!(grad.iter().all(|&x| x >= 1e-10 && x.is_finite()), "{grad:?}");
    }

    #[test]
    fn sgrld_zero_step_freezes_state() {
        let phi_a = vec![0.3, 1.2, 0.07, 2.4, 0.9];
        let noise = vec![1.0; 5];
        let mut grad = vec![123.0; 5];
        sgrld_step(
            Backend::detect(),
            &phi_a,
            &noise,
            0.25,
            0.0,
            50.0,
            0.0,
            1e-10,
            &mut grad,
        );
        assert_eq!(grad, phi_a);
    }
}
