//! x86_64 lane tokens: SSE2 (baseline, two unfused lanes) and
//! AVX2+FMA (runtime-detected, four fused lanes).
//!
//! # Soundness model
//!
//! [`Sse2Lanes`] is freely mintable: SSE2 is part of the x86_64
//! baseline, and this module only compiles on x86_64, so every SSE2
//! intrinsic is statically enabled and safe to call (the only `unsafe`
//! left is raw-pointer loads/stores, bounded by slice subranges).
//!
//! [`Avx2Lanes`] is a proof token: holding a value means AVX2 + FMA
//! (and transitively AVX) were verified on the running CPU. Tokens are
//! minted in exactly one place — `Avx2Lanes::mint_unchecked` inside
//! the `#[target_feature(enable = "avx2", enable = "fma")]` kernel
//! shims at the bottom of this file, which the per-kernel dispatchers
//! only call after re-checking `Backend::Avx2.available()`. Every
//! intrinsic call inside the `Avx2Lanes` methods discharges its safety
//! obligation against that token.
//!
//! The horizontal-sum sequences here implement the butterfly order
//! documented in [`crate::lanes`]: `extractf128` + `add_pd` +
//! `unpackhi` + `add_sd` for width 4, `unpackhi` + `add_sd` for
//! width 2.

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
/// `2^52 + 2^51`: adding and subtracting rounds `|x| < 2^51` to the
/// nearest integer (ties to even) under the default rounding mode.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

/// Two f64 lanes via SSE2; multiply-add is unfused (SSE2 has no FMA).
#[derive(Clone, Copy)]
pub struct Sse2Lanes(());

impl Sse2Lanes {
    /// SSE2 is the x86_64 baseline, so the token is freely mintable.
    #[inline(always)]
    pub fn mint() -> Self {
        Sse2Lanes(())
    }
}

impl LaneF64 for Sse2Lanes {
    const LANES: usize = 2;
    const FUSED: bool = false;
    type V = __m128d;

    #[inline(always)]
    fn splat(self, x: f64) -> __m128d {
        // SAFETY: SSE2 is the x86_64 baseline this module compiles for.
        unsafe { _mm_set1_pd(x) }
    }

    #[inline(always)]
    fn load(self, s: &[f64], i: usize) -> __m128d {
        let s = &s[i..i + 2];
        // SAFETY: SSE2 is baseline; the subrange above proves 2 f64s
        // are readable; loadu has no alignment requirement.
        unsafe { _mm_loadu_pd(s.as_ptr()) }
    }

    #[inline(always)]
    fn load_f32(self, s: &[f32], i: usize) -> __m128d {
        let s = &s[i..i + 2];
        // SAFETY: SSE2 is baseline; the subrange proves exactly 8
        // bytes (2 f32s) are readable; `_mm_load_sd` performs an
        // alignment-free 8-byte load, so the f64 pointer cast is a
        // pure reinterpretation, widened register-to-register.
        unsafe { _mm_cvtps_pd(_mm_castpd_ps(_mm_load_sd(s.as_ptr().cast::<f64>()))) }
    }

    #[inline(always)]
    fn store(self, v: __m128d, s: &mut [f64], i: usize) {
        let s = &mut s[i..i + 2];
        // SAFETY: SSE2 is baseline; the subrange above proves 2 f64s
        // are writable; storeu has no alignment requirement.
        unsafe { _mm_storeu_pd(s.as_mut_ptr(), v) }
    }

    #[inline(always)]
    fn add(self, a: __m128d, b: __m128d) -> __m128d {
        // SAFETY: SSE2 is the x86_64 baseline this module compiles for.
        unsafe { _mm_add_pd(a, b) }
    }

    #[inline(always)]
    fn sub(self, a: __m128d, b: __m128d) -> __m128d {
        // SAFETY: SSE2 is the x86_64 baseline this module compiles for.
        unsafe { _mm_sub_pd(a, b) }
    }

    #[inline(always)]
    fn mul(self, a: __m128d, b: __m128d) -> __m128d {
        // SAFETY: SSE2 is the x86_64 baseline this module compiles for.
        unsafe { _mm_mul_pd(a, b) }
    }

    #[inline(always)]
    fn div(self, a: __m128d, b: __m128d) -> __m128d {
        // SAFETY: SSE2 is the x86_64 baseline this module compiles for.
        unsafe { _mm_div_pd(a, b) }
    }

    #[inline(always)]
    fn fma(self, a: __m128d, b: __m128d, c: __m128d) -> __m128d {
        // Unfused by contract: SSE2 has no FMA, so this rounds twice,
        // matching `Lanes<2, false>` bit for bit.
        // SAFETY: SSE2 is the x86_64 baseline this module compiles for.
        unsafe { _mm_add_pd(_mm_mul_pd(a, b), c) }
    }

    #[inline(always)]
    fn sqrt(self, a: __m128d) -> __m128d {
        // SAFETY: SSE2 is the x86_64 baseline this module compiles for.
        unsafe { _mm_sqrt_pd(a) }
    }

    #[inline(always)]
    fn abs(self, a: __m128d) -> __m128d {
        // SAFETY: SSE2 is the x86_64 baseline this module compiles for.
        unsafe { _mm_andnot_pd(_mm_set1_pd(SIGN), a) }
    }

    #[inline(always)]
    fn max(self, a: __m128d, b: __m128d) -> __m128d {
        // SAFETY: SSE2 is the x86_64 baseline this module compiles for.
        unsafe { _mm_max_pd(a, b) }
    }

    #[inline(always)]
    fn hsum(self, a: __m128d) -> f64 {
        // Butterfly for width 2: v0 + v1.
        // SAFETY: SSE2 is the x86_64 baseline this module compiles for.
        unsafe {
            let hi = _mm_unpackhi_pd(a, a);
            _mm_cvtsd_f64(_mm_add_sd(a, hi))
        }
    }

    #[inline(always)]
    fn gt(self, a: __m128d, b: __m128d) -> __m128d {
        // SAFETY: SSE2 is the x86_64 baseline this module compiles for.
        unsafe { _mm_cmpgt_pd(a, b) }
    }

    #[inline(always)]
    fn select(self, mask: __m128d, t: __m128d, f: __m128d) -> __m128d {
        // SAFETY: SSE2 is the x86_64 baseline this module compiles for.
        unsafe { _mm_or_pd(_mm_and_pd(mask, t), _mm_andnot_pd(mask, f)) }
    }

    #[inline(always)]
    fn round_ties_even(self, a: __m128d) -> __m128d {
        // SSE2 has no roundpd; the add/sub magic rounds |a| < 2^51 to
        // the nearest integer (ties to even) under default rounding,
        // which is the trait's documented domain.
        // SAFETY: SSE2 is the x86_64 baseline this module compiles for.
        unsafe {
            let c = _mm_set1_pd(ROUND_MAGIC);
            _mm_sub_pd(_mm_add_pd(a, c), c)
        }
    }

    #[inline(always)]
    fn exponent_unbiased(self, a: __m128d) -> __m128d {
        // SAFETY: SSE2 is the x86_64 baseline this module compiles for.
        unsafe {
            let bits = _mm_castpd_si128(a);
            let eb = _mm_and_si128(_mm_srli_epi64::<52>(bits), _mm_set1_epi64x(EXP_SHIFT_MASK));
            let db = _mm_or_si128(eb, _mm_set1_epi64x(MAGIC_BITS));
            _mm_sub_pd(_mm_castsi128_pd(db), _mm_set1_pd(MAGIC_PLUS_BIAS))
        }
    }

    #[inline(always)]
    fn mantissa_one_two(self, a: __m128d) -> __m128d {
        // SAFETY: SSE2 is the x86_64 baseline this module compiles for.
        unsafe {
            let bits = _mm_castpd_si128(a);
            let m = _mm_or_si128(
                _mm_and_si128(bits, _mm_set1_epi64x(MANT_MASK)),
                _mm_set1_epi64x(ONE_BITS),
            );
            _mm_castsi128_pd(m)
        }
    }

    #[inline(always)]
    fn scale_by_pow2(self, v: __m128d, n: __m128d) -> __m128d {
        // n is integral with n + 1023 in [1, 2046]; add the bias in
        // i32, zero-extend the two lanes to i64, shift into the
        // exponent field, and multiply.
        // SAFETY: SSE2 is the x86_64 baseline this module compiles for.
        unsafe {
            let ni = _mm_cvtpd_epi32(n);
            let biased = _mm_add_epi32(ni, _mm_set1_epi32(1023));
            let wide = _mm_unpacklo_epi32(biased, _mm_setzero_si128());
            let factor = _mm_castsi128_pd(_mm_slli_epi64::<52>(wide));
            _mm_mul_pd(v, factor)
        }
    }
}

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
        // Bitwise select, matching the emulation and SSE2 exactly.
        // SAFETY: `self` proves AVX support.
        unsafe { _mm256_or_pd(_mm256_and_pd(mask, t), _mm256_andnot_pd(mask, f)) }
    }

    #[inline(always)]
    fn round_ties_even(self, a: __m256d) -> __m256d {
        // SAFETY: `self` proves AVX support.
        unsafe { _mm256_round_pd::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(a) }
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

    #[inline(always)]
    fn scale_by_pow2(self, v: __m256d, n: __m256d) -> __m256d {
        // n is integral with n + 1023 in [1, 2046]: narrow to i32,
        // widen back to i64, shift into the exponent field, multiply.
        // SAFETY: `self` proves AVX2 support.
        unsafe {
            let ni = _mm256_cvtpd_epi32(n);
            let wide = _mm256_cvtepi32_epi64(ni);
            let biased = _mm256_add_epi64(wide, _mm256_set1_epi64x(1023));
            let factor = _mm256_castsi256_pd(_mm256_slli_epi64::<52>(biased));
            _mm256_mul_pd(v, factor)
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

/// AVX2 instantiation of [`crate::math::vexp_with`].
#[target_feature(enable = "avx2", enable = "fma")]
pub fn vexp_avx2(x: &[f64], out: &mut [f64]) {
    crate::math::vexp_with(avx2_token!(), x, out)
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
