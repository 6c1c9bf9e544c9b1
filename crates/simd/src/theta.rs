//! Vectorized theta gradient accumulation (Eq. 4) with a per-chunk
//! coefficient context.
//!
//! `theta` and `beta` are constant within a mini-batch chunk, so
//! [`theta_chunk_begin`] precomputes everything the textbook per-pair
//! form of Eq. 4 re-derives per pair: the per-community
//! reciprocals `1/theta_k0`, `1/theta_k1`, `1/(theta_k0 + theta_k1)`
//! folded into four coefficient planes (link/non-link × component
//! 0/1 — two of which coincide at `-1/sum`, so three planes are
//! stored), plus `p_eq` planes for both observation values. Per pair,
//! [`theta_accumulate_pair`] then runs two fused vector passes:
//! `f`/`Z` accumulation (butterfly reduction order, tail in ascending
//! index order — see [`crate::lanes`]) and a coefficient
//! fma into two deinterleaved gradient planes. [`theta_chunk_finish`]
//! interleaves the planes into the caller's flat `K x 2` gradient.
//!
//! Numeric contract: the per-pair weight is associated as
//! `(weight * (1/Z)) * f_kk` and applied with one fma per component,
//! so values differ from the textbook form (the `legacy_pair` test
//! reference) in the last ulps; its `w == 0` skip is dropped because
//! adding an exact `±0`
//! product is a rounding no-op. Pair-accumulation order across a chunk
//! is the caller's serial batch order, unchanged.

use crate::backend::Backend;
use crate::lanes::{sfma, LaneF64, ScalarLanes};

/// Reusable per-chunk context + accumulator planes for the theta
/// gradient: eight `K`-sized planes, grown once and never shrunk.
#[derive(Debug, Clone, Default)]
pub struct ThetaScratch {
    buf: Vec<f64>,
    k: usize,
    delta: f64,
}

// Plane order inside `buf`:
//   0: p_eq for links            (beta)
//   1: p_eq for non-links        (1 - beta)
//   2: -1/(theta_k0 + theta_k1)  (shared: link comp 0, non-link comp 1)
//   3: 1/theta_k1 - 1/sum        (link comp 1)
//   4: 1/theta_k0 - 1/sum        (non-link comp 0)
//   5: f_kk scratch for the current pair
//   6: gradient plane, component 0
//   7: gradient plane, component 1
const PLANES: usize = 8;

impl ThetaScratch {
    /// Scratch pre-sized for community count `k`.
    pub fn new(k: usize) -> Self {
        let mut s = Self::default();
        s.ensure(k);
        s
    }

    /// Grow (never shrink) to hold planes for community count `k`.
    pub fn ensure(&mut self, k: usize) {
        let need = PLANES * k;
        if self.buf.len() < need {
            self.buf.resize(need, 0.0);
        }
    }

    // xlint: allow(hot-path-panic) — buf holds exactly four k-sized planes (ensure) and idx is one of the four fixed plane indices
    fn plane(&self, idx: usize) -> &[f64] {
        &self.buf[idx * self.k..(idx + 1) * self.k]
    }
}

/// Build the chunk context from the current `beta`/`theta` and zero the
/// gradient planes. Scalar and backend-independent: the same context
/// bytes feed every lane width.
// xlint: allow(hot-path-panic) — ensure(k) resizes every plane to k before the fills; all loops stop before k
pub fn theta_chunk_begin(beta: &[f64], theta: &[f64], delta: f64, scratch: &mut ThetaScratch) {
    let k = beta.len();
    assert_eq!(theta.len(), 2 * k, "theta must be K x 2");
    scratch.ensure(k);
    scratch.k = k;
    scratch.delta = delta;
    let buf = &mut scratch.buf;
    let (peq_link, rest) = buf[..PLANES * k].split_at_mut(k);
    let (peq_non, rest) = rest.split_at_mut(k);
    let (neg_inv_sum, rest) = rest.split_at_mut(k);
    let (c1_link, rest) = rest.split_at_mut(k);
    let (c0_non, rest) = rest.split_at_mut(k);
    let (_fdiag, grads) = rest.split_at_mut(k);
    for c in 0..k {
        let t0 = theta[2 * c];
        let t1 = theta[2 * c + 1];
        // The textbook form's per-pair expressions, hoisted: values are
        // bitwise the same.
        let inv_sum = 1.0 / (t0 + t1);
        peq_link[c] = beta[c];
        peq_non[c] = 1.0 - beta[c];
        neg_inv_sum[c] = -inv_sum;
        c1_link[c] = 1.0 / t1 - inv_sum;
        c0_non[c] = 1.0 / t0 - inv_sum;
    }
    grads.fill(0.0);
}

/// Width-generic accumulation of one pair into the gradient planes;
/// requires a prior [`theta_chunk_begin`] on this scratch.
// xlint: allow(hot-path-panic) — ctx and gradient planes were sized to k by theta_chunk_begin; every loop stops before k
#[inline(always)]
pub fn theta_accumulate_pair_with<L: LaneF64>(
    l: L,
    scratch: &mut ThetaScratch,
    pi_a: &[f32],
    pi_b: &[f32],
    y: bool,
    weight: f64,
) {
    let k = scratch.k;
    assert!(k > 0, "theta_chunk_begin must run before accumulation");
    assert!(pi_a.len() >= k && pi_b.len() >= k, "pi rows shorter than K");
    let delta = scratch.delta;
    let p_ne = if y { delta } else { 1.0 - delta };

    let buf = &mut scratch.buf;
    let (ctx, tail_planes) = buf[..PLANES * k].split_at_mut(5 * k);
    let (fdiag, grads) = tail_planes.split_at_mut(k);
    let (g0, g1) = grads.split_at_mut(k);
    let peq = if y { &ctx[..k] } else { &ctx[k..2 * k] };
    let neg_inv_sum = &ctx[2 * k..3 * k];
    let c1_link = &ctx[3 * k..4 * k];
    let c0_non = &ctx[4 * k..5 * k];
    let (c0, c1) = if y {
        (neg_inv_sum, c1_link)
    } else {
        (c0_non, neg_inv_sum)
    };

    let w = L::LANES;
    let vpne = l.splat(p_ne);
    let mut zacc = l.zero();
    let mut z;
    let mut c = 0;
    while c + w <= k {
        let pa = l.load_f32(pi_a, c);
        let pb = l.load_f32(pi_b, c);
        let papb = l.mul(pa, pb);
        let f = l.mul(l.load(peq, c), papb);
        l.store(f, fdiag, c);
        // z += f + p_ne * (pa - pa*pb), the exact factoring of
        // p_ne * pa * (1 - pb) used by the scalar kernel's algebra.
        zacc = l.add(zacc, l.fma(vpne, l.sub(pa, papb), f));
        c += w;
    }
    z = l.hsum(zacc);
    while c < k {
        let pa = pi_a[c] as f64;
        let pb = pi_b[c] as f64;
        let papb = pa * pb;
        let f = peq[c] * papb;
        fdiag[c] = f;
        z += sfma::<L>(p_ne, pa - papb, f);
        c += 1;
    }
    debug_assert!(z > 0.0, "pair marginal must be positive");

    let wz = weight * (1.0 / z);
    let vwz = l.splat(wz);
    let mut c = 0;
    while c + w <= k {
        let wv = l.mul(vwz, l.load(fdiag, c));
        l.store(l.fma(wv, l.load(c0, c), l.load(g0, c)), g0, c);
        l.store(l.fma(wv, l.load(c1, c), l.load(g1, c)), g1, c);
        c += w;
    }
    while c < k {
        let wv = wz * fdiag[c];
        g0[c] = sfma::<L>(wv, c0[c], g0[c]);
        g1[c] = sfma::<L>(wv, c1[c], g1[c]);
        c += 1;
    }
}

/// Interleave the accumulated gradient planes into flat `K x 2` `out`
/// (overwrites it), ending the chunk started by [`theta_chunk_begin`].
// xlint: allow(hot-path-panic) — out is the caller's K x 2 buffer and the gradient planes are k-sized; both index loops stop before k
pub fn theta_chunk_finish(scratch: &ThetaScratch, out: &mut [f64]) {
    let k = scratch.k;
    assert_eq!(out.len(), 2 * k, "gradient buffer must be K x 2");
    let g0 = scratch.plane(6);
    let g1 = scratch.plane(7);
    for c in 0..k {
        out[2 * c] = g0[c];
        out[2 * c + 1] = g1[c];
    }
}

/// Backend-dispatched [`theta_accumulate_pair_with`].
pub fn theta_accumulate_pair(
    backend: Backend,
    scratch: &mut ThetaScratch,
    pi_a: &[f32],
    pi_b: &[f32],
    y: bool,
    weight: f64,
) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if backend.available() => {
            // SAFETY: availability of avx2+fma was just re-verified on
            // the running CPU, discharging the target-feature contract.
            unsafe { crate::x86::theta_accumulate_pair_avx2(scratch, pi_a, pi_b, y, weight) }
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => {
            theta_accumulate_pair_with(crate::x86::Sse2Lanes::mint(), scratch, pi_a, pi_b, y, weight)
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => {
            theta_accumulate_pair_with(crate::neon::NeonLanes::mint(), scratch, pi_a, pi_b, y, weight)
        }
        _ => theta_accumulate_pair_with(ScalarLanes::default(), scratch, pi_a, pi_b, y, weight),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::Lanes;

    /// Scalar reference in the textbook evaluation order of Eq. 4.
    #[allow(clippy::too_many_arguments)]
    fn legacy_pair(
        pi_a: &[f32],
        pi_b: &[f32],
        y: bool,
        weight: f64,
        beta: &[f64],
        theta: &[f64],
        delta: f64,
        grad: &mut [f64],
    ) {
        let k = beta.len();
        let p_ne = if y { delta } else { 1.0 - delta };
        let mut z = 0.0f64;
        let mut f_diag = vec![0.0; k];
        for c in 0..k {
            let pa = pi_a[c] as f64;
            let pb = pi_b[c] as f64;
            let p_eq = if y { beta[c] } else { 1.0 - beta[c] };
            let f = p_eq * pa * pb;
            f_diag[c] = f;
            z += f + p_ne * pa * (1.0 - pb);
        }
        let inv_z = 1.0 / z;
        let yf = if y { 1.0 } else { 0.0 };
        for c in 0..k {
            let w = weight * f_diag[c] * inv_z;
            let sum_theta = theta[2 * c] + theta[2 * c + 1];
            let inv_sum = 1.0 / sum_theta;
            grad[2 * c] += w * ((1.0 - yf) / theta[2 * c] - inv_sum);
            grad[2 * c + 1] += w * (yf / theta[2 * c + 1] - inv_sum);
        }
    }

    fn setup(k: usize, seed: u64) -> (Vec<f32>, Vec<f32>, Vec<f64>, Vec<f64>) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pi_a: Vec<f32> = (0..k).map(|_| (0.05 + next()) as f32).collect();
        let pi_b: Vec<f32> = (0..k).map(|_| (0.05 + next()) as f32).collect();
        let theta: Vec<f64> = (0..2 * k).map(|_| 0.5 + 2.0 * next()).collect();
        let beta: Vec<f64> = (0..k)
            .map(|c| theta[2 * c + 1] / (theta[2 * c] + theta[2 * c + 1]))
            .collect();
        (pi_a, pi_b, theta, beta)
    }

    #[test]
    fn chunk_matches_legacy_reference_all_widths() {
        for &k in &[1usize, 3, 4, 7, 8, 16, 33] {
            let (pi_a, pi_b, theta, beta) = setup(k, k as u64 + 17);
            let delta = 1e-4;
            let pairs = [(true, 1.0), (false, 2.5), (true, 0.5), (false, 1.0)];
            let mut expect = vec![0.0f64; 2 * k];
            for &(y, wt) in &pairs {
                legacy_pair(&pi_a, &pi_b, y, wt, &beta, &theta, delta, &mut expect);
            }
            let mut scratch = ThetaScratch::new(k);
            for width_tag in 0..3 {
                theta_chunk_begin(&beta, &theta, delta, &mut scratch);
                for &(y, wt) in &pairs {
                    match width_tag {
                        0 => theta_accumulate_pair_with(
                            Lanes::<1, false>, &mut scratch, &pi_a, &pi_b, y, wt,
                        ),
                        1 => theta_accumulate_pair_with(
                            Lanes::<2, true>, &mut scratch, &pi_a, &pi_b, y, wt,
                        ),
                        _ => theta_accumulate_pair_with(
                            Lanes::<4, true>, &mut scratch, &pi_a, &pi_b, y, wt,
                        ),
                    }
                }
                let mut got = vec![0.0f64; 2 * k];
                theta_chunk_finish(&scratch, &mut got);
                for j in 0..2 * k {
                    let tol = 1e-9 * (1.0 + expect[j].abs());
                    assert!(
                        (got[j] - expect[j]).abs() < tol,
                        "k={k} width_tag={width_tag} j={j}: {} vs {}",
                        got[j],
                        expect[j]
                    );
                }
            }
        }
    }

    #[test]
    fn dispatched_backends_agree_with_scalar() {
        let k = 16;
        let (pi_a, pi_b, theta, beta) = setup(k, 3);
        let mut scratch = ThetaScratch::new(k);
        theta_chunk_begin(&beta, &theta, 1e-4, &mut scratch);
        theta_accumulate_pair(Backend::Scalar, &mut scratch, &pi_a, &pi_b, true, 1.0);
        theta_accumulate_pair(Backend::Scalar, &mut scratch, &pi_a, &pi_b, false, 2.0);
        let mut reference = vec![0.0f64; 2 * k];
        theta_chunk_finish(&scratch, &mut reference);
        for b in [Backend::Sse2, Backend::Avx2, Backend::Neon] {
            if !b.available() {
                continue;
            }
            theta_chunk_begin(&beta, &theta, 1e-4, &mut scratch);
            theta_accumulate_pair(b, &mut scratch, &pi_a, &pi_b, true, 1.0);
            theta_accumulate_pair(b, &mut scratch, &pi_a, &pi_b, false, 2.0);
            let mut got = vec![0.0f64; 2 * k];
            theta_chunk_finish(&scratch, &mut got);
            for j in 0..2 * k {
                assert!(
                    (got[j] - reference[j]).abs() < 1e-9 * (1.0 + reference[j].abs()),
                    "backend {b} j={j}"
                );
            }
        }
    }

    #[test]
    fn weight_scales_linearly() {
        let k = 5;
        let (pi_a, pi_b, theta, beta) = setup(k, 9);
        let mut scratch = ThetaScratch::new(k);
        theta_chunk_begin(&beta, &theta, 0.01, &mut scratch);
        theta_accumulate_pair(Backend::detect(), &mut scratch, &pi_a, &pi_b, true, 1.0);
        let mut unit = vec![0.0f64; 2 * k];
        theta_chunk_finish(&scratch, &mut unit);
        theta_chunk_begin(&beta, &theta, 0.01, &mut scratch);
        theta_accumulate_pair(Backend::detect(), &mut scratch, &pi_a, &pi_b, true, 5.0);
        let mut scaled = vec![0.0f64; 2 * k];
        theta_chunk_finish(&scratch, &mut scaled);
        for (u, s) in unit.iter().zip(&scaled) {
            assert!((5.0 * u - s).abs() < 1e-12);
        }
    }
}
