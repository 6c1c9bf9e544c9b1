//! Vectorized `ln` (polynomial approximation) with scalar-`std` fixup
//! for special values, and the polar-method normal finish built on it.
//!
//! # Algorithm
//!
//! Decompose `x = m·2^e` with `m ∈ [1, 2)` by bit manipulation, fold
//! `m > √2` into `m/2, e+1` so `m ∈ [√2/2, √2]`, then
//! `ln m = 2 atanh(s)` with `s = (m-1)/(m+1)`, `|s| ≤ 0.172`: a
//! degree-10 odd polynomial in `z = s²` (truncation error
//! `≈ z^11/23 ≤ 3·10^{-18}` relative). Both `m - 1` and the final
//! `e·LN2_HI` step are exact (`LN2_HI` has 21 trailing zero bits and
//! `|e| < 2^11`), so there is no cancellation blow-up near `x = 1`.
//! The vector path covers normal positive finite inputs; zero,
//! negatives, subnormals, ±inf and NaN are recomputed with scalar
//! `f64::ln`.
//!
//! # Accuracy and determinism
//!
//! Elementwise only — no horizontal operations — so results are
//! *lane-width invariant*: every fused backend (AVX2, NEON, the fused
//! emulations, and the fused scalar tail) produces identical bits, and
//! likewise every unfused one (the scalar backend, `Lanes<_, false>`).
//! Bounded-ULP tests against `std` pin the error at ≤ 2 ulp (fused)
//! and ≤ 4 ulp (unfused); `tests/ulp.rs` sweeps the bound per
//! available backend.

use crate::backend::Backend;
use crate::lanes::{sfma, LaneF64, ScalarLanes};

/// High half of ln 2 (21 trailing zero bits: `0x3FE62E42FEE00000`).
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
/// Low half of ln 2 (`0x3DEA39EF35793C76`).
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
const SQRT_2: f64 = std::f64::consts::SQRT_2;
/// atanh series coefficients `1/(2j+1)`, `j = 1..=10`.
const LN_C: [f64; 10] = [
    1.0 / 3.0,
    1.0 / 5.0,
    1.0 / 7.0,
    1.0 / 9.0,
    1.0 / 11.0,
    1.0 / 13.0,
    1.0 / 15.0,
    1.0 / 17.0,
    1.0 / 19.0,
    1.0 / 21.0,
];

/// Scalar mirror of the vector ln formula. Caller guarantees `x` is a
/// positive normal finite value.
// xlint: allow(hot-path-panic) — LN_C is indexed only with constant literals smaller than the table length
#[inline(always)]
fn ln_mirror<L: LaneF64>(x: f64) -> f64 {
    let bits = x.to_bits();
    let mut e = (((bits >> 52) & 0x7ff) as f64) - 1023.0;
    let mut m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000);
    if m > SQRT_2 {
        m *= 0.5;
        e += 1.0;
    }
    let s = (m - 1.0) / (m + 1.0);
    let z = s * s;
    let mut p = LN_C[9];
    let mut i = 9;
    while i > 0 {
        i -= 1;
        p = sfma::<L>(p, z, LN_C[i]);
    }
    let t = s * z * p;
    let lnm = 2.0 * (s + t);
    sfma::<L>(e, LN2_LO, sfma::<L>(e, LN2_HI, lnm))
}

/// Width-generic `out[i] = ln(x[i])`; see the module docs.
// xlint: allow(hot-path-panic) — x/out lengths are asserted equal on entry, loops stop before that length, and LN_C is indexed with constant literals inside the table
#[inline(always)]
pub fn vln_with<L: LaneF64>(l: L, x: &[f64], out: &mut [f64]) {
    assert_eq!(x.len(), out.len(), "ln buffer length mismatch");
    let n = x.len();
    let w = L::LANES;
    let vtiny = l.splat(f64::MIN_POSITIVE);
    let vhuge = l.splat(f64::MAX);
    let one = l.splat(1.0);
    let half = l.splat(0.5);
    let vsqrt2 = l.splat(SQRT_2);
    let vln2hi = l.splat(LN2_HI);
    let vln2lo = l.splat(LN2_LO);
    let two = l.splat(2.0);
    let mut c = 0;
    while c + w <= n {
        let raw = l.load(x, c);
        // Substitute 1.0 (ln = 0) for lanes outside the positive normal
        // range; the fixup sweep rewrites them with std `ln`.
        let v = l.select(l.gt(raw, vtiny), raw, one);
        let v = l.select(l.gt(vhuge, v), v, one);
        let mut e = l.exponent_unbiased(v);
        let mut m = l.mantissa_one_two(v);
        let fold = l.gt(m, vsqrt2);
        m = l.select(fold, l.mul(m, half), m);
        e = l.select(fold, l.add(e, one), e);
        let s = l.div(l.sub(m, one), l.add(m, one));
        let z = l.mul(s, s);
        let mut p = l.splat(LN_C[9]);
        let mut i = 9;
        while i > 0 {
            i -= 1;
            p = l.fma(p, z, l.splat(LN_C[i]));
        }
        let t = l.mul(l.mul(s, z), p);
        let lnm = l.mul(two, l.add(s, t));
        l.store(l.fma(e, vln2lo, l.fma(e, vln2hi, lnm)), out, c);
        c += w;
    }
    while c < n {
        out[c] = if x[c] > f64::MIN_POSITIVE && x[c] < f64::MAX {
            ln_mirror::<L>(x[c])
        } else {
            x[c].ln()
        };
        c += 1;
    }
    for (o, &xi) in out.iter_mut().zip(x) {
        if !(xi > f64::MIN_POSITIVE && xi < f64::MAX) {
            *o = xi.ln();
        }
    }
}

/// Width-generic polar-method finish: `out[i] = u[i] * sqrt(-2 ln(s[i]) / s[i])`
/// for accepted polar pairs `(u, s)` with `s ∈ (0, 1)`.
///
/// This is the transcendental half of the Marsaglia polar method: a
/// caller draws accepted `(u, s)` pairs from its RNG (the cheap,
/// inherently serial rejection loop) and finishes the whole batch here,
/// replacing one scalar `ln` + `sqrt` per variate with their packed
/// forms. Division, square root, and the final multiply are
/// correctly-rounded IEEE operations, so the result inherits `vln`'s
/// determinism contract: identical bits at every lane width, with only
/// fusedness (FMA inside the `ln` polynomial) distinguishing backends.
// xlint: allow(hot-path-panic) — u/s/out lengths are asserted equal on entry; both loops stop before that shared length
#[inline(always)]
pub fn polar_normal_with<L: LaneF64>(l: L, u: &[f64], s: &[f64], out: &mut [f64]) {
    assert_eq!(u.len(), s.len(), "polar buffer length mismatch");
    vln_with(l, s, out); // out = ln(s); asserts s.len() == out.len()
    let n = s.len();
    let w = L::LANES;
    let m2 = l.splat(-2.0);
    let mut c = 0;
    while c + w <= n {
        let lns = l.load(out, c);
        let sv = l.load(s, c);
        let uv = l.load(u, c);
        let factor = l.sqrt(l.div(l.mul(m2, lns), sv));
        l.store(l.mul(uv, factor), out, c);
        c += w;
    }
    while c < n {
        out[c] = u[c] * (-2.0 * out[c] / s[c]).sqrt();
        c += 1;
    }
}

/// Backend-dispatched [`polar_normal_with`].
pub fn polar_normal(backend: Backend, u: &[f64], s: &[f64], out: &mut [f64]) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if backend.available() => {
            // SAFETY: availability of avx2+fma was just re-verified on
            // the running CPU, discharging the target-feature contract.
            unsafe { crate::x86::polar_normal_avx2(u, s, out) }
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => polar_normal_with(crate::neon::NeonLanes::mint(), u, s, out),
        _ => polar_normal_with(ScalarLanes::default(), u, s, out),
    }
}

/// Backend-dispatched [`vln_with`].
pub fn vln(backend: Backend, x: &[f64], out: &mut [f64]) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if backend.available() => {
            // SAFETY: availability of avx2+fma was just re-verified on
            // the running CPU, discharging the target-feature contract.
            unsafe { crate::x86::vln_avx2(x, out) }
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => vln_with(crate::neon::NeonLanes::mint(), x, out),
        _ => vln_with(ScalarLanes::default(), x, out),
    }
}

/// Distance in units-in-the-last-place between two finite f64s (0 for
/// bitwise equality; ±0 compare equal). Public for the ULP test suite.
pub fn ulp_distance(a: f64, b: f64) -> u64 {
    fn ordered(x: f64) -> i64 {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN - bits
        } else {
            bits
        }
    }
    (ordered(a) - ordered(b)).unsigned_abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::Lanes;

    fn sweep() -> Vec<f64> {
        // Deterministic log-spaced + linear sweep covering both tails.
        let mut xs = Vec::new();
        let mut v = 1e-12f64;
        while v < 1e12 {
            xs.push(v);
            xs.push(-v);
            v *= 1.37;
        }
        let mut t = -690.0f64;
        while t < 690.0 {
            xs.push(t);
            t += 1.618;
        }
        // Near-1 band where ln cancellation would bite.
        let mut u = 0.9f64;
        while u < 1.1 {
            xs.push(u);
            u += 1.0 / 4096.0;
        }
        xs
    }

    #[test]
    fn ln_ulp_bound_fused_and_unfused() {
        let xs: Vec<f64> = sweep().into_iter().filter(|&x| x > 0.0).collect();
        let mut out = vec![0.0; xs.len()];
        vln_with(Lanes::<4, true>, &xs, &mut out);
        for (&x, &got) in xs.iter().zip(&out) {
            let want = x.ln();
            let d = ulp_distance(got, want);
            assert!(d <= 2, "fused ln({x}) = {got} vs {want}: {d} ulp");
        }
        vln_with(Lanes::<2, false>, &xs, &mut out);
        for (&x, &got) in xs.iter().zip(&out) {
            let want = x.ln();
            let d = ulp_distance(got, want);
            assert!(d <= 4, "unfused ln({x}) = {got} vs {want}: {d} ulp");
        }
    }

    #[test]
    fn specials_defer_to_std() {
        let xs = [
            0.0,
            -0.0,
            -1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1e-310, // subnormal
            f64::MAX,
            f64::MIN_POSITIVE,
            800.0,
            -800.0,
        ];
        let mut lout = vec![0.0; xs.len()];
        vln(Backend::detect(), &xs, &mut lout);
        for (i, &x) in xs.iter().enumerate() {
            assert!(
                lout[i] == x.ln() || (lout[i].is_nan() && x.ln().is_nan()),
                "ln({x}) = {} vs {}",
                lout[i],
                x.ln()
            );
        }
    }

    #[test]
    fn lane_width_invariance_when_fused() {
        // No horizontal ops: every fused width must agree bitwise.
        let pos: Vec<f64> = sweep().into_iter().filter(|&x| x > 0.0).collect();
        let mut l1 = vec![0.0; pos.len()];
        let mut l2 = vec![0.0; pos.len()];
        let mut l4 = vec![0.0; pos.len()];
        vln_with(Lanes::<1, true>, &pos, &mut l1);
        vln_with(Lanes::<2, true>, &pos, &mut l2);
        vln_with(Lanes::<4, true>, &pos, &mut l4);
        for i in 0..pos.len() {
            assert!(
                l1[i].to_bits() == l2[i].to_bits() && l2[i].to_bits() == l4[i].to_bits(),
                "ln width divergence at {}",
                pos[i]
            );
        }
    }

    /// Deterministic accepted polar pairs: points on a grid inside the
    /// unit disk, skipping the rejected region.
    fn polar_pairs() -> (Vec<f64>, Vec<f64>) {
        let (mut us, mut ss) = (Vec::new(), Vec::new());
        let mut u = -0.99f64;
        while u < 1.0 {
            let mut v = -0.99f64;
            while v < 1.0 {
                let s = u * u + v * v;
                if s > 0.0 && s < 1.0 {
                    us.push(u);
                    ss.push(s);
                }
                v += 1.0 / 64.0;
            }
            u += 1.0 / 64.0;
        }
        (us, ss)
    }

    #[test]
    fn polar_normal_tracks_scalar_reference() {
        // The finish is ln (<= 2 / 4 ulp) followed by correctly-rounded
        // div, sqrt, mul; sqrt halves relative error, so the composite
        // stays within the ln bound plus the extra roundings.
        let (us, ss) = polar_pairs();
        let mut out = vec![0.0; us.len()];
        for (lanes, bound) in [(true, 3u64), (false, 5u64)] {
            if lanes {
                polar_normal_with(Lanes::<4, true>, &us, &ss, &mut out);
            } else {
                polar_normal_with(Lanes::<2, false>, &us, &ss, &mut out);
            }
            for i in 0..us.len() {
                let want = us[i] * (-2.0 * ss[i].ln() / ss[i]).sqrt();
                let d = ulp_distance(out[i], want);
                assert!(
                    d <= bound,
                    "polar(u={}, s={}) = {} vs {}: {d} ulp (fused={lanes})",
                    us[i],
                    ss[i],
                    out[i],
                    want
                );
            }
        }
    }

    #[test]
    fn polar_normal_is_lane_width_invariant_and_dispatch_matches() {
        let (us, ss) = polar_pairs();
        let mut w1 = vec![0.0; us.len()];
        let mut w4 = vec![0.0; us.len()];
        polar_normal_with(Lanes::<1, true>, &us, &ss, &mut w1);
        polar_normal_with(Lanes::<4, true>, &us, &ss, &mut w4);
        for i in 0..us.len() {
            assert_eq!(
                w1[i].to_bits(),
                w4[i].to_bits(),
                "polar width divergence at (u={}, s={})",
                us[i],
                ss[i]
            );
        }
        // Each real backend must agree bitwise with the emulated lanes
        // of its width/fusedness (the reference the contract names).
        let mut got = vec![0.0; us.len()];
        let mut want = vec![0.0; us.len()];
        for b in [Backend::Scalar, Backend::Avx2, Backend::Neon] {
            if !b.available() {
                continue;
            }
            polar_normal(b, &us, &ss, &mut got);
            match (b.lanes(), b.fused()) {
                (1, false) => polar_normal_with(Lanes::<1, false>, &us, &ss, &mut want),
                (2, true) => polar_normal_with(Lanes::<2, true>, &us, &ss, &mut want),
                (4, true) => polar_normal_with(Lanes::<4, true>, &us, &ss, &mut want),
                other => unreachable!("no backend has shape {other:?}"),
            }
            for i in 0..us.len() {
                assert_eq!(
                    got[i].to_bits(),
                    want[i].to_bits(),
                    "{b} diverges from emulated lanes at (u={}, s={})",
                    us[i],
                    ss[i]
                );
            }
        }
    }

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(0.0, -0.0), 0);
        assert_eq!(ulp_distance(1.0, 1.0 + f64::EPSILON), 1);
        assert_eq!(ulp_distance(-1.0, -(1.0 + f64::EPSILON)), 1);
    }
}
