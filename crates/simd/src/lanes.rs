//! The lane-width abstraction every kernel is written against.
//!
//! [`LaneF64`] is a *token trait*: a value of an implementing type is
//! proof that the instruction set it names is safe to execute on the
//! running CPU. Intrinsic-backed tokens ([`crate::x86::Avx2Lanes`],
//! [`crate::neon::NeonLanes`]) are only minted behind runtime feature
//! detection (or inside the `#[target_feature]` kernel shims the
//! detected dispatch reaches), so the trait methods themselves stay
//! safe to call.
//!
//! [`Lanes<W, FUSED>`] is the portable pure-`f64` model of a `W`-wide
//! register. It is both the always-available scalar fallback
//! (`Lanes<1, false>`) and the *bitwise reference* for every intrinsic
//! backend: for each lane width the intrinsic token and the matching
//! `Lanes` instantiation must produce identical bytes from identical
//! inputs (pinned by `tests/parity.rs`). That works because every
//! method below is elementwise IEEE-754 arithmetic with a pinned
//! operation order, and the one horizontal operation ([`LaneF64::hsum`])
//! has a documented fixed reduction tree.
//!
//! # Deterministic reduction order
//!
//! `hsum` is a butterfly fold: the upper half of the register is added
//! lane-wise onto the lower half, halving the width until one lane
//! remains. For `W = 4` that is `(v0 + v2) + (v1 + v3)`; for `W = 2` it
//! is `v0 + v1`; for `W = 1` it is `v0`. Kernels that reduce a slice
//! accumulate whole vectors lane-wise in slice order, butterfly the
//! final accumulator, then add any tail elements in ascending index
//! order — so for a given lane width the reduction order is a pure
//! function of the input length.
//!
//! # Fusedness
//!
//! `FUSED` records whether [`LaneF64::fma`] contracts `a * b + c` into
//! one rounding (AVX2+FMA, NEON) or performs two (the scalar backend,
//! `Lanes<1, false>`, which needs no hardware or libm `fma`). The
//! scalar tail helper [`sfma`] follows the same flag so tail elements
//! round exactly like their vectorized siblings.

/// Elementwise `f64` lane operations plus the documented horizontal sum.
///
/// All methods are *total* for finite inputs; NaN behaviour follows the
/// underlying instruction (`max` is `a > b ? a : b`, i.e. `maxpd`
/// semantics) — kernels in this crate only feed it NaN-free data.
pub trait LaneF64: Copy {
    /// Lanes per register.
    const LANES: usize;
    /// Whether [`LaneF64::fma`] rounds once (true) or twice (false).
    const FUSED: bool;
    /// The register type.
    type V: Copy;

    /// Broadcast `x` to all lanes.
    fn splat(self, x: f64) -> Self::V;
    /// Load `LANES` values from `s[i..]`.
    fn load(self, s: &[f64], i: usize) -> Self::V;
    /// Load `LANES` `f32` values from `s[i..]`, widening to `f64`.
    fn load_f32(self, s: &[f32], i: usize) -> Self::V;
    /// Store all lanes to `s[i..]`.
    fn store(self, v: Self::V, s: &mut [f64], i: usize);
    /// Lane-wise `a + b`.
    fn add(self, a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise `a - b`.
    fn sub(self, a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise `a * b`.
    fn mul(self, a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise `a / b`.
    fn div(self, a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise `a * b + c`, fused iff [`LaneF64::FUSED`].
    fn fma(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    /// Lane-wise IEEE square root (correctly rounded on every backend).
    fn sqrt(self, a: Self::V) -> Self::V;
    /// Lane-wise `|a|` (sign-bit clear).
    fn abs(self, a: Self::V) -> Self::V;
    /// Lane-wise `a > b ? a : b` (`maxpd` semantics).
    fn max(self, a: Self::V, b: Self::V) -> Self::V;
    /// Butterfly horizontal sum; see the module docs for the order.
    fn hsum(self, a: Self::V) -> f64;
    /// Lane-wise `a > b`, producing an all-ones (true) / all-zeros mask.
    fn gt(self, a: Self::V, b: Self::V) -> Self::V;
    /// Bitwise select: `(mask & t) | (!mask & f)` per lane.
    fn select(self, mask: Self::V, t: Self::V, f: Self::V) -> Self::V;
    /// Unbiased binary exponent of each (positive, normal) lane, as f64.
    fn exponent_unbiased(self, a: Self::V) -> Self::V;
    /// Mantissa of each (positive, normal) lane, rescaled into `[1, 2)`.
    fn mantissa_one_two(self, a: Self::V) -> Self::V;

    /// All-zero lanes.
    #[inline(always)]
    fn zero(self) -> Self::V {
        self.splat(0.0)
    }
}

/// Scalar `a * b + c` with the fusedness of lane type `L` — used for
/// tail elements so they round exactly like the vector body.
#[inline(always)]
pub fn sfma<L: LaneF64>(a: f64, b: f64, c: f64) -> f64 {
    if L::FUSED {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// Scalar mirror of [`LaneF64::max`] (`maxpd` semantics, not `f64::max`).
#[inline(always)]
pub fn smax(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// Portable `W`-lane model: the scalar fallback and the bitwise
/// reference each intrinsic backend is tested against.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lanes<const W: usize, const FUSED: bool>;

/// The always-available scalar backend (one lane, unfused arithmetic —
/// no dependency on a hardware or libm `fma`).
pub type ScalarLanes = Lanes<1, false>;

const SIGN_MASK: u64 = 0x8000_0000_0000_0000;
const EXP_MASK: u64 = 0x7ff0_0000_0000_0000;
const MANT_MASK: u64 = 0x000f_ffff_ffff_ffff;
const ONE_BITS: u64 = 0x3ff0_0000_0000_0000;

// xlint: allow(hot-path-panic) — lane values are [f64; W] arrays indexed by j in 0..W loops (in bounds by construction); slice load/store follow the trait contract i + LANES <= len upheld by every caller's loop bound
impl<const W: usize, const FUSED: bool> LaneF64 for Lanes<W, FUSED> {
    const LANES: usize = W;
    const FUSED: bool = FUSED;
    type V = [f64; W];

    #[inline(always)]
    fn splat(self, x: f64) -> [f64; W] {
        [x; W]
    }

    #[inline(always)]
    fn load(self, s: &[f64], i: usize) -> [f64; W] {
        let s = &s[i..i + W];
        core::array::from_fn(|j| s[j])
    }

    #[inline(always)]
    fn load_f32(self, s: &[f32], i: usize) -> [f64; W] {
        let s = &s[i..i + W];
        core::array::from_fn(|j| s[j] as f64)
    }

    #[inline(always)]
    fn store(self, v: [f64; W], s: &mut [f64], i: usize) {
        s[i..i + W].copy_from_slice(&v);
    }

    #[inline(always)]
    fn add(self, a: [f64; W], b: [f64; W]) -> [f64; W] {
        core::array::from_fn(|j| a[j] + b[j])
    }

    #[inline(always)]
    fn sub(self, a: [f64; W], b: [f64; W]) -> [f64; W] {
        core::array::from_fn(|j| a[j] - b[j])
    }

    #[inline(always)]
    fn mul(self, a: [f64; W], b: [f64; W]) -> [f64; W] {
        core::array::from_fn(|j| a[j] * b[j])
    }

    #[inline(always)]
    fn div(self, a: [f64; W], b: [f64; W]) -> [f64; W] {
        core::array::from_fn(|j| a[j] / b[j])
    }

    #[inline(always)]
    fn fma(self, a: [f64; W], b: [f64; W], c: [f64; W]) -> [f64; W] {
        if FUSED {
            core::array::from_fn(|j| a[j].mul_add(b[j], c[j]))
        } else {
            core::array::from_fn(|j| a[j] * b[j] + c[j])
        }
    }

    #[inline(always)]
    fn sqrt(self, a: [f64; W]) -> [f64; W] {
        core::array::from_fn(|j| a[j].sqrt())
    }

    #[inline(always)]
    fn abs(self, a: [f64; W]) -> [f64; W] {
        core::array::from_fn(|j| f64::from_bits(a[j].to_bits() & !SIGN_MASK))
    }

    #[inline(always)]
    fn max(self, a: [f64; W], b: [f64; W]) -> [f64; W] {
        core::array::from_fn(|j| smax(a[j], b[j]))
    }

    #[inline(always)]
    fn hsum(self, a: [f64; W]) -> f64 {
        debug_assert!(W.is_power_of_two(), "butterfly fold needs a power of two");
        let mut v = a;
        let mut n = W;
        while n > 1 {
            n /= 2;
            for j in 0..n {
                v[j] += v[j + n];
            }
        }
        v[0]
    }

    #[inline(always)]
    fn gt(self, a: [f64; W], b: [f64; W]) -> [f64; W] {
        core::array::from_fn(|j| f64::from_bits(if a[j] > b[j] { u64::MAX } else { 0 }))
    }

    #[inline(always)]
    fn select(self, mask: [f64; W], t: [f64; W], f: [f64; W]) -> [f64; W] {
        core::array::from_fn(|j| {
            let m = mask[j].to_bits();
            f64::from_bits((m & t[j].to_bits()) | (!m & f[j].to_bits()))
        })
    }

    #[inline(always)]
    fn exponent_unbiased(self, a: [f64; W]) -> [f64; W] {
        // Mirrors the integer sequence of the intrinsic backends: shift
        // the biased exponent down, OR it into the 2^52 magic mantissa,
        // subtract (2^52 + 1023). Every step is exact, so the plain
        // `as f64` conversion here produces identical bits.
        core::array::from_fn(|j| {
            let eb = ((a[j].to_bits() & EXP_MASK) >> 52) as f64;
            eb - 1023.0
        })
    }

    #[inline(always)]
    fn mantissa_one_two(self, a: [f64; W]) -> [f64; W] {
        core::array::from_fn(|j| f64::from_bits((a[j].to_bits() & MANT_MASK) | ONE_BITS))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn butterfly_order_is_documented_shape() {
        let l: Lanes<4, true> = Lanes;
        let v = [1.0e16, 1.0, -1.0e16, 2.0];
        // (v0 + v2) + (v1 + v3) = 0 + 3, not the left-to-right 2.0.
        assert_eq!(l.hsum(v), 3.0);
        let seq = ((1.0e16 + 1.0) - 1.0e16) + 2.0;
        assert_ne!(l.hsum(v), seq, "butterfly must differ from serial here");
        let l2: Lanes<2, true> = Lanes;
        assert_eq!(l2.hsum([3.0, 4.0]), 7.0);
    }

    #[test]
    fn fused_flag_controls_rounding() {
        let f: Lanes<1, true> = Lanes;
        let u: Lanes<1, false> = Lanes;
        let (a, b, c) = (1.0 + 2f64.powi(-30), 1.0 + 2f64.powi(-30), -1.0);
        let fused = f.fma([a], [b], [c])[0];
        let unfused = u.fma([a], [b], [c])[0];
        assert_eq!(fused, a.mul_add(b, c));
        assert_eq!(unfused, a * b + c);
        assert_ne!(
            fused, unfused,
            "inputs chosen to expose the double rounding"
        );
    }

    #[test]
    fn exponent_and_mantissa_roundtrip() {
        let l: Lanes<2, true> = Lanes;
        for x in [1.0, 1.5, 2.0, 0.75, 1234.5678, 1e-200, 3e200] {
            let v = l.splat(x);
            let e = l.exponent_unbiased(v)[0];
            let m = l.mantissa_one_two(v)[0];
            assert!((1.0..2.0).contains(&m), "m = {m}");
            assert_eq!(m * 2f64.powi(e as i32), x, "x = {x}");
        }
    }

    #[test]
    fn select_is_bitwise() {
        let l: Lanes<2, true> = Lanes;
        let mask = l.gt([2.0, 1.0], [1.0, 2.0]);
        let picked = l.select(mask, [10.0, 10.0], [20.0, 20.0]);
        assert_eq!(picked, [10.0, 20.0]);
    }

    #[test]
    fn max_has_maxpd_semantics() {
        // a > b ? a : b — NaN in `a` selects `b`.
        assert_eq!(smax(f64::NAN, 1.0), 1.0);
        assert_eq!(smax(2.0, 1.0), 2.0);
        assert!(smax(1.0, f64::NAN).is_nan());
    }
}
