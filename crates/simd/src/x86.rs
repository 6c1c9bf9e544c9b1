//! x86_64 lane token: AVX2+FMA (runtime-detected, four fused lanes).
//!
//! # Soundness model
//!
//! [`Avx2Lanes`] is a proof token: holding a value means AVX2 + FMA
//! (and transitively AVX) were verified on the running CPU. Tokens are
//! minted in exactly one place — `Avx2Lanes::mint_unchecked` inside
//! the `#[target_feature(enable = "avx2", enable = "fma")]` kernel
//! shims at the bottom of this file, which the per-kernel dispatchers
//! only call after re-checking `Backend::Avx2.available()`. Every
//! intrinsic call inside the `Avx2Lanes` methods discharges its safety
//! obligation against that token; the only other `unsafe` is the
//! raw-pointer loads/stores, bounded by slice subranges.
//!
//! The horizontal-sum sequence here implements the butterfly order
//! documented in [`crate::lanes`]: `extractf128` + `add_pd` +
//! `unpackhi` + `add_sd` for width 4.

#![cfg(target_arch = "x86_64")]

use core::arch::x86_64::*;

use crate::lanes::LaneF64;

const SIGN: f64 = -0.0;
const EXP_SHIFT_MASK: i64 = 0x7ff;
const MANT_MASK: i64 = 0x000f_ffff_ffff_ffffu64 as i64;
const ONE_BITS: i64 = 0x3ff0_0000_0000_0000u64 as i64;
const MAGIC_BITS: i64 = 0x4330_0000_0000_0000u64 as i64;
/// `2^52 + 1023`, exactly representable; subtracting it from the
/// magic-OR'd biased exponent yields the unbiased exponent exactly.
const MAGIC_PLUS_BIAS: f64 = 4_503_599_627_371_519.0;

/// Four f64 lanes via AVX2 with fused multiply-add.
///
/// A value of this type is proof that AVX2 + FMA are supported by the
/// running CPU — see the module docs for where tokens are minted.
#[derive(Clone, Copy)]
pub struct Avx2Lanes(());

impl Avx2Lanes {
    /// Mint without checking.
    ///
    /// # Safety
    /// The caller must guarantee the running CPU supports AVX2 and FMA
    /// (e.g. by calling from inside an `avx2,fma` target-feature
    /// function that is itself only reachable after detection).
    #[inline(always)]
    unsafe fn mint_unchecked() -> Self {
        Avx2Lanes(())
    }
}

impl LaneF64 for Avx2Lanes {
    const LANES: usize = 4;
    const FUSED: bool = true;
    type V = __m256d;

    #[inline(always)]
    fn splat(self, x: f64) -> __m256d {
        // SAFETY: `self` proves AVX2+FMA (hence AVX) support.
        unsafe { _mm256_set1_pd(x) }
    }

    #[inline(always)]
    fn load(self, s: &[f64], i: usize) -> __m256d {
        let s = &s[i..i + 4];
        // SAFETY: `self` proves AVX support; the subrange above proves
        // 4 f64s are readable; loadu has no alignment requirement.
        unsafe { _mm256_loadu_pd(s.as_ptr()) }
    }

    #[inline(always)]
    fn load_f32(self, s: &[f32], i: usize) -> __m256d {
        let s = &s[i..i + 4];
        // SAFETY: `self` proves AVX support; the subrange proves
        // exactly 16 bytes (4 f32s) are readable via the unaligned
        // 128-bit load, then widened register-to-register.
        unsafe { _mm256_cvtps_pd(_mm_loadu_ps(s.as_ptr())) }
    }

    #[inline(always)]
    fn store(self, v: __m256d, s: &mut [f64], i: usize) {
        let s = &mut s[i..i + 4];
        // SAFETY: `self` proves AVX support; the subrange above proves
        // 4 f64s are writable; storeu has no alignment requirement.
        unsafe { _mm256_storeu_pd(s.as_mut_ptr(), v) }
    }

    #[inline(always)]
    fn add(self, a: __m256d, b: __m256d) -> __m256d {
        // SAFETY: `self` proves AVX support.
        unsafe { _mm256_add_pd(a, b) }
    }

    #[inline(always)]
    fn sub(self, a: __m256d, b: __m256d) -> __m256d {
        // SAFETY: `self` proves AVX support.
        unsafe { _mm256_sub_pd(a, b) }
    }

    #[inline(always)]
    fn mul(self, a: __m256d, b: __m256d) -> __m256d {
        // SAFETY: `self` proves AVX support.
        unsafe { _mm256_mul_pd(a, b) }
    }

    #[inline(always)]
    fn div(self, a: __m256d, b: __m256d) -> __m256d {
        // SAFETY: `self` proves AVX support.
        unsafe { _mm256_div_pd(a, b) }
    }

    #[inline(always)]
    fn fma(self, a: __m256d, b: __m256d, c: __m256d) -> __m256d {
        // SAFETY: `self` proves FMA support.
        unsafe { _mm256_fmadd_pd(a, b, c) }
    }

    #[inline(always)]
    fn sqrt(self, a: __m256d) -> __m256d {
        // SAFETY: `self` proves AVX support.
        unsafe { _mm256_sqrt_pd(a) }
    }

    #[inline(always)]
    fn abs(self, a: __m256d) -> __m256d {
        // SAFETY: `self` proves AVX support.
        unsafe { _mm256_andnot_pd(_mm256_set1_pd(SIGN), a) }
    }

    #[inline(always)]
    fn max(self, a: __m256d, b: __m256d) -> __m256d {
        // SAFETY: `self` proves AVX support.
        unsafe { _mm256_max_pd(a, b) }
    }

    #[inline(always)]
    fn hsum(self, a: __m256d) -> f64 {
        // Butterfly for width 4: (v0 + v2) + (v1 + v3).
        // SAFETY: `self` proves AVX support.
        unsafe {
            let lo = _mm256_castpd256_pd128(a);
            let hi = _mm256_extractf128_pd::<1>(a);
            let pair = _mm_add_pd(lo, hi);
            let swapped = _mm_unpackhi_pd(pair, pair);
            _mm_cvtsd_f64(_mm_add_sd(pair, swapped))
        }
    }

    #[inline(always)]
    fn gt(self, a: __m256d, b: __m256d) -> __m256d {
        // SAFETY: `self` proves AVX support.
        unsafe { _mm256_cmp_pd::<_CMP_GT_OQ>(a, b) }
    }

    #[inline(always)]
    fn select(self, mask: __m256d, t: __m256d, f: __m256d) -> __m256d {
        // Bitwise select, matching the emulation exactly.
        // SAFETY: `self` proves AVX support.
        unsafe { _mm256_or_pd(_mm256_and_pd(mask, t), _mm256_andnot_pd(mask, f)) }
    }

    #[inline(always)]
    fn exponent_unbiased(self, a: __m256d) -> __m256d {
        // SAFETY: `self` proves AVX2 support (integer 256-bit ops).
        unsafe {
            let bits = _mm256_castpd_si256(a);
            let eb = _mm256_and_si256(
                _mm256_srli_epi64::<52>(bits),
                _mm256_set1_epi64x(EXP_SHIFT_MASK),
            );
            let db = _mm256_or_si256(eb, _mm256_set1_epi64x(MAGIC_BITS));
            _mm256_sub_pd(_mm256_castsi256_pd(db), _mm256_set1_pd(MAGIC_PLUS_BIAS))
        }
    }

    #[inline(always)]
    fn mantissa_one_two(self, a: __m256d) -> __m256d {
        // SAFETY: `self` proves AVX2 support (integer 256-bit ops).
        unsafe {
            let bits = _mm256_castpd_si256(a);
            let m = _mm256_or_si256(
                _mm256_and_si256(bits, _mm256_set1_epi64x(MANT_MASK)),
                _mm256_set1_epi64x(ONE_BITS),
            );
            _mm256_castsi256_pd(m)
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 kernel shims.
//
// Each shim instantiates the width-generic kernel with the AVX2 token
// inside an `avx2,fma` target-feature context so the `#[inline(always)]`
// lane methods compile down to packed instructions. The shims are safe
// fns with `#[target_feature]`, so calling them from the dispatchers
// requires `unsafe` — the dispatchers discharge that by re-checking
// `Backend::Avx2.available()` immediately before the call.
// ---------------------------------------------------------------------------

macro_rules! avx2_token {
    () => {{
        // SAFETY: this function carries `target_feature(avx2, fma)` and
        // is only reachable through a dispatcher that verified both
        // features on the running CPU.
        unsafe { Avx2Lanes::mint_unchecked() }
    }};
}

/// AVX2 instantiation of [`crate::phi::phi_gradient_with`].
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
pub fn phi_gradient_avx2(
    phi_a: &[f64],
    beta: &[f64],
    rows: &[f32],
    stride: usize,
    linked: &[bool],
    delta: f64,
    scratch: &mut crate::phi::PhiScratch,
    out: &mut [f64],
) {
    crate::phi::phi_gradient_with(
        avx2_token!(),
        phi_a,
        beta,
        rows,
        stride,
        linked,
        delta,
        scratch,
        out,
    )
}

/// AVX2 instantiation of [`crate::phi::sgrld_step_with`].
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
pub fn sgrld_step_avx2(
    phi_a: &[f64],
    noise: &[f64],
    alpha: f64,
    half_eps: f64,
    grad_scale: f64,
    noise_scale: f64,
    floor: f64,
    grad: &mut [f64],
) {
    crate::phi::sgrld_step_with(
        avx2_token!(),
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

/// AVX2 instantiation of [`crate::theta::theta_accumulate_pair_with`].
#[target_feature(enable = "avx2", enable = "fma")]
pub fn theta_accumulate_pair_avx2(
    scratch: &mut crate::theta::ThetaScratch,
    pi_a: &[f32],
    pi_b: &[f32],
    y: bool,
    weight: f64,
) {
    crate::theta::theta_accumulate_pair_with(avx2_token!(), scratch, pi_a, pi_b, y, weight)
}

/// AVX2 instantiation of [`crate::edge::edge_dots_with`] over
/// [`crate::edge::WideRows`].
#[target_feature(enable = "avx2", enable = "fma")]
pub fn edge_dots_avx2(pi_a: &[f64], pib_a: &[f64], pi_b: &[f64]) -> (f64, f64) {
    crate::edge::edge_dots_with(avx2_token!(), crate::edge::WideRows { pi_a, pib_a, pi_b })
}

/// AVX2 instantiation of [`crate::edge::edge_dots_with`] over
/// [`crate::edge::F32Rows`].
#[target_feature(enable = "avx2", enable = "fma")]
pub fn edge_dots_f32_avx2(pi_a: &[f32], beta: &[f64], pi_b: &[f32]) -> (f64, f64) {
    crate::edge::edge_dots_with(avx2_token!(), crate::edge::F32Rows { pi_a, beta, pi_b })
}

/// AVX2 instantiation of [`crate::math::polar_normal_with`].
#[target_feature(enable = "avx2", enable = "fma")]
pub fn polar_normal_avx2(u: &[f64], s: &[f64], out: &mut [f64]) {
    crate::math::polar_normal_with(avx2_token!(), u, s, out)
}

/// AVX2 instantiation of [`crate::math::vln_with`].
#[target_feature(enable = "avx2", enable = "fma")]
pub fn vln_avx2(x: &[f64], out: &mut [f64]) {
    crate::math::vln_with(avx2_token!(), x, out)
}
