//! aarch64 NEON lane token: two f64 lanes with fused multiply-add.
//!
//! NEON (Advanced SIMD) is part of the aarch64 baseline that every
//! Rust aarch64 target enables statically, so the token is freely
//! mintable and the non-pointer intrinsics are safe calls; the only
//! `unsafe` here is raw-pointer loads/stores, bounded by slice
//! subranges exactly like the x86 backend.
//!
//! The horizontal sum is the width-2 butterfly (`v0 + v1`), matching
//! `Lanes<2, true>`; `fma` fuses (`vfmaq_f64`), so NEON pairs with the
//! *fused* width-2 emulation.

#![cfg(target_arch = "aarch64")]

use core::arch::aarch64::*;

use crate::lanes::LaneF64;

const EXP_SHIFT_MASK: u64 = 0x7ff;
const MANT_MASK: u64 = 0x000f_ffff_ffff_ffff;
const ONE_BITS: u64 = 0x3ff0_0000_0000_0000;

/// Two f64 lanes via NEON; multiply-add fuses.
#[derive(Clone, Copy)]
pub struct NeonLanes(());

impl NeonLanes {
    /// NEON is the aarch64 baseline, so the token is freely mintable.
    #[inline(always)]
    pub fn mint() -> Self {
        NeonLanes(())
    }
}

impl LaneF64 for NeonLanes {
    const LANES: usize = 2;
    const FUSED: bool = true;
    type V = float64x2_t;

    #[inline(always)]
    fn splat(self, x: f64) -> float64x2_t {
        vdupq_n_f64(x)
    }

    #[inline(always)]
    fn load(self, s: &[f64], i: usize) -> float64x2_t {
        let s = &s[i..i + 2];
        // SAFETY: the subrange above proves 2 f64s are readable at the
        // pointer; vld1q has no alignment requirement beyond element.
        unsafe { vld1q_f64(s.as_ptr()) }
    }

    #[inline(always)]
    fn load_f32(self, s: &[f32], i: usize) -> float64x2_t {
        let s = &s[i..i + 2];
        // SAFETY: the subrange proves exactly 8 bytes (2 f32s) are
        // readable by the 64-bit vld1 load; the widen is
        // register-to-register.
        let narrow = unsafe { vld1_f32(s.as_ptr()) };
        vcvt_f64_f32(narrow)
    }

    #[inline(always)]
    fn store(self, v: float64x2_t, s: &mut [f64], i: usize) {
        let s = &mut s[i..i + 2];
        // SAFETY: the subrange above proves 2 f64s are writable at the
        // pointer; vst1q has no alignment requirement beyond element.
        unsafe { vst1q_f64(s.as_mut_ptr(), v) }
    }

    #[inline(always)]
    fn add(self, a: float64x2_t, b: float64x2_t) -> float64x2_t {
        vaddq_f64(a, b)
    }

    #[inline(always)]
    fn sub(self, a: float64x2_t, b: float64x2_t) -> float64x2_t {
        vsubq_f64(a, b)
    }

    #[inline(always)]
    fn mul(self, a: float64x2_t, b: float64x2_t) -> float64x2_t {
        vmulq_f64(a, b)
    }

    #[inline(always)]
    fn div(self, a: float64x2_t, b: float64x2_t) -> float64x2_t {
        vdivq_f64(a, b)
    }

    #[inline(always)]
    fn fma(self, a: float64x2_t, b: float64x2_t, c: float64x2_t) -> float64x2_t {
        // vfmaq_f64(c, a, b) = c + a * b with a single rounding.
        vfmaq_f64(c, a, b)
    }

    #[inline(always)]
    fn sqrt(self, a: float64x2_t) -> float64x2_t {
        vsqrtq_f64(a)
    }

    #[inline(always)]
    fn abs(self, a: float64x2_t) -> float64x2_t {
        vabsq_f64(a)
    }

    #[inline(always)]
    fn max(self, a: float64x2_t, b: float64x2_t) -> float64x2_t {
        // `a > b ? a : b` to match the maxpd-style contract (the
        // kernels never feed NaN, where vbsl and vmaxq could differ).
        vbslq_f64(vcgtq_f64(a, b), a, b)
    }

    #[inline(always)]
    fn hsum(self, a: float64x2_t) -> f64 {
        // Butterfly for width 2: v0 + v1.
        vgetq_lane_f64::<0>(a) + vgetq_lane_f64::<1>(a)
    }

    #[inline(always)]
    fn gt(self, a: float64x2_t, b: float64x2_t) -> float64x2_t {
        vreinterpretq_f64_u64(vcgtq_f64(a, b))
    }

    #[inline(always)]
    fn select(self, mask: float64x2_t, t: float64x2_t, f: float64x2_t) -> float64x2_t {
        // vbsl is the same bitwise (mask & t) | (!mask & f).
        vbslq_f64(vreinterpretq_u64_f64(mask), t, f)
    }

    #[inline(always)]
    fn exponent_unbiased(self, a: float64x2_t) -> float64x2_t {
        // Biased exponent as a small integer; the u64 -> f64 convert is
        // exact for values < 2^53, matching the emulation bitwise.
        let bits = vreinterpretq_u64_f64(a);
        let eb = vandq_u64(vshrq_n_u64::<52>(bits), vdupq_n_u64(EXP_SHIFT_MASK));
        vsubq_f64(vcvtq_f64_u64(eb), vdupq_n_f64(1023.0))
    }

    #[inline(always)]
    fn mantissa_one_two(self, a: float64x2_t) -> float64x2_t {
        let bits = vreinterpretq_u64_f64(a);
        let m = vorrq_u64(
            vandq_u64(bits, vdupq_n_u64(MANT_MASK)),
            vdupq_n_u64(ONE_BITS),
        );
        vreinterpretq_f64_u64(m)
    }
}
