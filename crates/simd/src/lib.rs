//! `mmsb-simd`: a safe, dependency-free lane-width abstraction over
//! `core::arch` intrinsics plus the vectorized phi/theta hot-path
//! kernels built on it, and [`crc32`], the checksum behind every
//! out-of-core block and checkpoint check.
//!
//! [`crc32`] takes no [`Backend`]: its result is an exact integer, so
//! it picks its own path (a carry-less-multiply fold where the CPU has
//! `pclmulqdq` + `sse4.1`, slice-by-8 otherwise) without any
//! determinism contract to pin.
//!
//! # Backends
//!
//! | backend | arch | lanes (f64) | fma | availability |
//! |---------|------|-------------|-----|--------------|
//! | `scalar` | any | 1 | unfused | always |
//! | `sse2` | x86_64 | 2 | unfused | baseline |
//! | `avx2` | x86_64 | 4 | fused | runtime-detected (AVX2 + FMA) |
//! | `neon` | aarch64 | 2 | fused | baseline |
//!
//! Selection goes through [`SimdPolicy`]: `Auto` resolves to the
//! widest detected backend, `Force` demands one and fails loudly if
//! the host cannot run it. [`Backend`] values are then passed to the
//! kernel entry points ([`phi_gradient`], [`sgrld_step`],
//! [`theta_accumulate_pair`], [`vexp`], [`vln`]), which re-verify
//! availability before entering any `#[target_feature]` code — a
//! stale or forged value degrades to the scalar path, never to
//! undefined behaviour.
//!
//! # Determinism contract
//!
//! For a fixed backend, every kernel is a pure function of its inputs
//! with a pinned operation order — including the horizontal reduction,
//! which uses the butterfly order documented in [`lanes`]: add the
//! upper half lane-wise onto the lower half, halving the width until
//! one lane remains, then fold tail elements in ascending index order.
//! Each intrinsic backend is pinned *bitwise* against the portable
//! [`lanes::Lanes`] emulation of the same width and fusedness
//! (`tests/parity.rs`), so the contract is testable without the
//! hardware in the loop. Different backends produce different low-bit
//! rounding; callers that need cross-host reproducibility force a
//! common backend.
//!
//! # Safety
//!
//! All `unsafe` in the workspace's SIMD layer lives in this crate
//! (enforced by `xlint`'s confinement rule): raw-pointer loads/stores
//! bounded by slice subranges, intrinsic calls gated by proof tokens
//! that are only minted behind feature detection, and the
//! detection-guarded calls into `#[target_feature]` shims. Every
//! block carries a SAFETY comment.

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(missing_docs)]

mod backend;
mod crc;
pub mod edge;
pub mod lanes;
pub mod math;
mod neon;
pub mod phi;
pub mod theta;
mod x86;

pub use backend::{Backend, PolicyError, SimdPolicy};
pub use crc::crc32;
pub use edge::edge_dots;
pub use math::{polar_normal, ulp_distance, vexp, vln};
pub use phi::{phi_gradient, sgrld_step, PhiScratch};
pub use theta::{
    theta_accumulate_pair, theta_chunk_begin, theta_chunk_finish, ThetaScratch,
};
