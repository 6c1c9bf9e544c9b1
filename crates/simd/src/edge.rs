//! Vectorized Eq. 7 edge-likelihood dot products for the serving layer.
//!
//! Eq. 7 for a pair `(a, b)` needs exactly two dot products over
//! community index `c`:
//!
//! ```text
//! same   = sum_c pi_a[c] * pi_b[c]
//! linked = sum_c (pi_a[c] * beta[c]) * pi_b[c]
//! p      = linked + (1 - min(same, 1)) * delta
//! ```
//!
//! A served model snapshot holds each vertex's membership row once, in
//! the checkpoint's f32: [`edge_dots_f32`] widens `pi_a`/`pi_b` in
//! registers and forms `pi_a * beta` there, one correctly rounded f64
//! product per lane. [`edge_dots`] takes the same three rows already in
//! f64, `pi_a * beta` precomputed. Both run one width-generic body,
//! [`edge_dots_with`], over an [`EdgeRows`] source, so on the widened
//! planes the two agree bit for bit on every backend.
//!
//! Both sums run in one fused pass so `pi_b` is loaded once per lane.
//! Horizontal reduction uses the butterfly order documented in
//! [`crate::lanes`], with tail elements folded in ascending index order
//! — the same determinism contract as every other kernel in this crate.

use crate::backend::Backend;
use crate::lanes::{sfma, LaneF64, ScalarLanes};

/// Where one Eq. 7 pass reads its rows: `pi_a`, `pi_a * beta` and
/// `pi_b`, `LANES` communities at a time.
pub trait EdgeRows: Copy {
    /// Lengths of the `pi_a`, `pi_a * beta` (or `beta`) and `pi_b`
    /// slices; the first is K.
    fn lens(self) -> (usize, usize, usize);
    /// `(pi_a, pi_a * beta, pi_b)` over communities `c..c + L::LANES`.
    fn load<L: LaneF64>(self, l: L, c: usize) -> (L::V, L::V, L::V);
}

/// Rows already widened to f64, `pib_a[c] = pi_a[c] * beta[c]`
/// precomputed.
#[derive(Debug, Clone, Copy)]
pub struct WideRows<'a> {
    /// Row `a` of `pi`.
    pub pi_a: &'a [f64],
    /// Row `a` of `pi * beta`.
    pub pib_a: &'a [f64],
    /// Row `b` of `pi`.
    pub pi_b: &'a [f64],
}

impl EdgeRows for WideRows<'_> {
    #[inline(always)]
    fn lens(self) -> (usize, usize, usize) {
        (self.pi_a.len(), self.pib_a.len(), self.pi_b.len())
    }

    #[inline(always)]
    fn load<L: LaneF64>(self, l: L, c: usize) -> (L::V, L::V, L::V) {
        (
            l.load(self.pi_a, c),
            l.load(self.pib_a, c),
            l.load(self.pi_b, c),
        )
    }
}

/// f32 membership rows and `beta`: each lane widens `pi` and multiplies
/// by `beta` in registers — the product [`WideRows`] gets precomputed.
#[derive(Debug, Clone, Copy)]
pub struct F32Rows<'a> {
    /// Row `a` of `pi`.
    pub pi_a: &'a [f32],
    /// Community strengths.
    pub beta: &'a [f64],
    /// Row `b` of `pi`.
    pub pi_b: &'a [f32],
}

impl EdgeRows for F32Rows<'_> {
    #[inline(always)]
    fn lens(self) -> (usize, usize, usize) {
        (self.pi_a.len(), self.beta.len(), self.pi_b.len())
    }

    #[inline(always)]
    fn load<L: LaneF64>(self, l: L, c: usize) -> (L::V, L::V, L::V) {
        let pi_a = l.load_f32(self.pi_a, c);
        (
            pi_a,
            l.mul(pi_a, l.load(self.beta, c)),
            l.load_f32(self.pi_b, c),
        )
    }
}

/// Width-generic dual dot product: returns
/// `(sum_c pi_a[c] * pi_b[c], sum_c (pi_a * beta)[c] * pi_b[c])` over
/// `c in 0..K`. The tail loads its elements through the same
/// [`EdgeRows::load`] one lane wide, so they round like the body.
///
/// # Panics
/// Panics if the second or third row is shorter than K.
#[inline(always)]
pub fn edge_dots_with<L: LaneF64, R: EdgeRows>(l: L, rows: R) -> (f64, f64) {
    let (k, k_ab, k_b) = rows.lens();
    assert!(k_ab >= k && k_b >= k, "edge rows shorter than K");
    let w = L::LANES;
    let mut same_acc = l.zero();
    let mut linked_acc = l.zero();
    let mut c = 0;
    while c + w <= k {
        let (pa, pab, pb) = rows.load(l, c);
        same_acc = l.fma(pa, pb, same_acc);
        linked_acc = l.fma(pab, pb, linked_acc);
        c += w;
    }
    let mut same = l.hsum(same_acc);
    let mut linked = l.hsum(linked_acc);
    while c < k {
        let ([pa], [pab], [pb]) = rows.load(ScalarLanes::default(), c);
        same = sfma::<L>(pa, pb, same);
        linked = sfma::<L>(pab, pb, linked);
        c += 1;
    }
    (same, linked)
}

/// [`edge_dots_with`] on every backend but AVX2. The AVX2 shims take
/// the three slices as arguments rather than one [`EdgeRows`] value:
/// passed behind a pointer, the slice lengths lose the range the
/// compiler needs to unroll the loop.
#[inline(always)]
fn portable<R: EdgeRows>(backend: Backend, rows: R) -> (f64, f64) {
    match backend {
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => edge_dots_with(crate::neon::NeonLanes::mint(), rows),
        _ => edge_dots_with(ScalarLanes::default(), rows),
    }
}

/// Eq. 7's two sums over f64 rows with `pib_a = pi_a * beta`
/// precomputed: `(same, linked)`.
pub fn edge_dots(backend: Backend, pi_a: &[f64], pib_a: &[f64], pi_b: &[f64]) -> (f64, f64) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if backend.available() => {
            // SAFETY: availability of avx2+fma was just re-verified on
            // the running CPU, discharging the target-feature contract.
            unsafe { crate::x86::edge_dots_avx2(pi_a, pib_a, pi_b) }
        }
        _ => portable(backend, WideRows { pi_a, pib_a, pi_b }),
    }
}

/// Eq. 7's two sums over f32 membership rows and `beta`, with
/// `pi_a * beta` formed in registers: `(same, linked)`, bit-equal to
/// [`edge_dots`] on the widened rows and `pib_a = pi_a * beta`.
pub fn edge_dots_f32(backend: Backend, pi_a: &[f32], beta: &[f64], pi_b: &[f32]) -> (f64, f64) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if backend.available() => {
            // SAFETY: availability of avx2+fma was just re-verified on
            // the running CPU, discharging the target-feature contract.
            unsafe { crate::x86::edge_dots_f32_avx2(pi_a, beta, pi_b) }
        }
        _ => portable(backend, F32Rows { pi_a, beta, pi_b }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::Lanes;

    fn setup(k: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pi_a: Vec<f64> = (0..k).map(|_| 0.05 + next()).collect();
        let pi_b: Vec<f64> = (0..k).map(|_| 0.05 + next()).collect();
        let beta: Vec<f64> = (0..k).map(|_| next()).collect();
        let pib_a: Vec<f64> = (0..k).map(|c| pi_a[c] * beta[c]).collect();
        (pi_a, pib_a, pi_b)
    }

    fn reference(pi_a: &[f64], pib_a: &[f64], pi_b: &[f64]) -> (f64, f64) {
        let mut same = 0.0;
        let mut linked = 0.0;
        for c in 0..pi_a.len() {
            same += pi_a[c] * pi_b[c];
            linked += pib_a[c] * pi_b[c];
        }
        (same, linked)
    }

    #[test]
    fn matches_reference_all_widths() {
        for &k in &[0usize, 1, 2, 3, 4, 7, 8, 16, 33, 257] {
            let (pi_a, pib_a, pi_b) = setup(k, k as u64 + 5);
            let (es, el) = reference(&pi_a, &pib_a, &pi_b);
            let rows = WideRows {
                pi_a: &pi_a,
                pib_a: &pib_a,
                pi_b: &pi_b,
            };
            for width_tag in 0..3 {
                let (s, l) = match width_tag {
                    0 => edge_dots_with(Lanes::<1, false>, rows),
                    1 => edge_dots_with(Lanes::<2, true>, rows),
                    _ => edge_dots_with(Lanes::<4, true>, rows),
                };
                let tol = 1e-12 * (1.0 + es.abs() + el.abs());
                assert!(
                    (s - es).abs() < tol && (l - el).abs() < tol,
                    "k={k} width_tag={width_tag}: ({s}, {l}) vs ({es}, {el})"
                );
            }
        }
    }

    #[test]
    fn dispatched_backends_agree_with_scalar() {
        let (pi_a, pib_a, pi_b) = setup(19, 42);
        let (rs, rl) = edge_dots(Backend::Scalar, &pi_a, &pib_a, &pi_b);
        for b in [Backend::Avx2, Backend::Neon] {
            if !b.available() {
                continue;
            }
            let (s, l) = edge_dots(b, &pi_a, &pib_a, &pi_b);
            let tol = 1e-12 * (1.0 + rs.abs() + rl.abs());
            assert!(
                (s - rs).abs() < tol && (l - rl).abs() < tol,
                "backend {b}: ({s}, {l}) vs ({rs}, {rl})"
            );
        }
    }

    #[test]
    fn fixed_backend_is_deterministic() {
        let (pi_a, pib_a, pi_b) = setup(33, 7);
        let b = Backend::detect();
        let first = edge_dots(b, &pi_a, &pib_a, &pi_b);
        for _ in 0..10 {
            assert_eq!(edge_dots(b, &pi_a, &pib_a, &pi_b), first);
        }
    }

    /// f32 weights a widening or a product can get wrong: both zeros,
    /// subnormals of both signs, the smallest normal and neighbours of
    /// one an ulp apart.
    const EDGE_WEIGHTS: [f32; 10] = [
        0.0,
        -0.0,
        1.0e-45, // smallest subnormal
        -1.0e-45,
        1.0e-40,
        f32::MIN_POSITIVE,
        1.0,
        1.0 + f32::EPSILON,
        1.0 - f32::EPSILON / 2.0,
        0.5,
    ];

    #[test]
    fn f32_rows_match_the_widened_planes_bit_for_bit() {
        let backends: Vec<Backend> = [Backend::Scalar, Backend::Avx2, Backend::Neon]
            .into_iter()
            .filter(|b| b.available())
            .collect();
        let bits = |(s, l): (f64, f64)| (s.to_bits(), l.to_bits());
        for k in [0usize, 1, 2, 3, 4, 7, 8, 63, 64, 65, 257] {
            for seed in 0..200u64 {
                let mut state = (seed * 1_000 + k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let mut next = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state >> 11
                };
                let unit = |r: u64| r as f64 / (1u64 << 53) as f64;
                // Random weights, edge values and exact ties (a repeat
                // of the previous weight, or of the same community in
                // the other row).
                let mut row = |other: &[f32]| -> Vec<f32> {
                    let mut out: Vec<f32> = Vec::with_capacity(k);
                    for c in 0..k {
                        let r = next();
                        out.push(match r % 8 {
                            0 | 1 => EDGE_WEIGHTS[(r >> 3) as usize % EDGE_WEIGHTS.len()],
                            2 => out.last().copied().unwrap_or(0.25),
                            3 => other.get(c).copied().unwrap_or(0.125),
                            _ => unit(next()) as f32,
                        });
                    }
                    out
                };
                let pi_a = row(&[]);
                let pi_b = row(&pi_a);
                let beta: Vec<f64> = (0..k).map(|_| unit(next()) * 2.5 - 0.5).collect();
                let wide_a: Vec<f64> = pi_a.iter().map(|&p| p as f64).collect();
                let wide_b: Vec<f64> = pi_b.iter().map(|&p| p as f64).collect();
                let pib_a: Vec<f64> = wide_a.iter().zip(&beta).map(|(p, b)| p * b).collect();
                for &b in &backends {
                    assert_eq!(
                        bits(edge_dots_f32(b, &pi_a, &beta, &pi_b)),
                        bits(edge_dots(b, &wide_a, &pib_a, &wide_b)),
                        "backend {b} k={k} seed={seed}"
                    );
                }
            }
        }
    }
}
