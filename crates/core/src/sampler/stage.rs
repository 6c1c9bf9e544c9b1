//! The two data-parallel stages of an iteration, implemented once.
//!
//! Every driver — pool-parallel, lockstep distributed, threaded — calls
//! [`phi_update`] per mini-batch vertex and [`theta_gradient`] per pair
//! range; they differ only in where the `pi` rows come from (the
//! resident [`crate::ModelState`] at stride `K`, or DKV rows at stride
//! `K + 1`). Both functions run the `mmsb-simd` kernels on the
//! configured backend, so the scalar backend is those kernels at one
//! unfused lane, not a second implementation.
//!
//! This file is on xlint's hot-path list: outside the scratch
//! constructor nothing here allocates, indexes or unwraps.

use crate::state::PHI_MIN;
use mmsb_rand::dist::Normal;
use mmsb_rand::Xoshiro256PlusPlus;
use mmsb_simd::{Backend, PhiScratch, ThetaScratch};

/// Per-iteration scalars of the `phi` stage.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PhiParams {
    pub backend: Backend,
    /// Number of vertices `N`; the gradient scale of Eq. 5 is `N / |V_n|`.
    pub n: u32,
    pub alpha: f64,
    pub delta: f64,
    /// Step size `eps_t`.
    pub eps: f64,
}

/// Kernel scratch of one worker: pure scratch, never read across calls.
pub(crate) struct StageScratch {
    /// Standard-normal variates of one SGRLD step (`K`, coordinate order).
    noise: Vec<f64>,
    /// Accepted polar `u` components feeding the vectorized normal finish.
    noise_u: Vec<f64>,
    /// Accepted polar `s = u² + v²` components paired with `noise_u`.
    noise_s: Vec<f64>,
    phi: PhiScratch,
    theta: ThetaScratch,
}

impl StageScratch {
    // xlint: allow(hot-path-alloc) — setup-time construction: one scratch per worker, reused by every call below
    pub fn new(k: usize) -> Self {
        Self {
            noise: Vec::with_capacity(k),
            noise_u: Vec::with_capacity(k),
            noise_s: Vec::with_capacity(k),
            phi: PhiScratch::new(k),
            theta: ThetaScratch::new(k),
        }
    }
}

/// One SGRLD step (Eq. 5/6) on a vertex's `phi` row, written to `out`:
///
/// `phi* = | phi + eps/2 * (alpha - phi + N/|V_n| * grad) + sqrt(phi) * xi |`
/// with `xi ~ N(0, eps)`, clamped to [`PHI_MIN`].
///
/// `rows` holds one `pi_b` row per entry of `linked`, `stride >= K`
/// floats apart. The `K` noise variates are drawn from `rng` in
/// coordinate order *after* the gradient — callers pass the vertex's
/// `(seed, iteration, vertex)` stream, already advanced past its
/// neighbor draws, which is what makes the result independent of the
/// driver.
#[allow(clippy::too_many_arguments)] // one flat call per vertex; a params struct would only rename the slices
pub(crate) fn phi_update(
    params: &PhiParams,
    beta: &[f64],
    phi_a: &[f64],
    rows: &[f32],
    stride: usize,
    linked: &[bool],
    rng: &mut Xoshiro256PlusPlus,
    scratch: &mut StageScratch,
    out: &mut [f64],
) {
    let k = phi_a.len();
    mmsb_simd::phi_gradient(
        params.backend,
        phi_a,
        beta,
        rows,
        stride,
        linked,
        params.delta,
        &mut scratch.phi,
        out,
    );
    scratch.noise_u.clear();
    scratch.noise_s.clear();
    for _ in 0..k {
        let (u, s) = Normal::standard_accept(rng);
        scratch.noise_u.push(u);
        scratch.noise_s.push(s);
    }
    scratch.noise.clear();
    scratch.noise.resize(k, 0.0);
    mmsb_simd::polar_normal(
        params.backend,
        &scratch.noise_u,
        &scratch.noise_s,
        &mut scratch.noise,
    );
    mmsb_simd::sgrld_step(
        params.backend,
        phi_a,
        &scratch.noise,
        params.alpha,
        0.5 * params.eps,
        params.n as f64 / linked.len().max(1) as f64,
        params.eps.sqrt(),
        PHI_MIN,
        out,
    );
}

/// The weighted `theta` gradient (Eq. 4) of a run of mini-batch pairs,
/// accumulated serially in iteration order into `out` (flat `K x 2`,
/// overwritten). Each item is `(pi_a, pi_b, y, weight)`; the caller's
/// iterator is the row lookup.
pub(crate) fn theta_gradient<'r>(
    backend: Backend,
    beta: &[f64],
    theta: &[f64],
    delta: f64,
    pairs: impl Iterator<Item = (&'r [f32], &'r [f32], bool, f64)>,
    scratch: &mut StageScratch,
    out: &mut [f64],
) {
    mmsb_simd::theta_chunk_begin(beta, theta, delta, &mut scratch.theta);
    for (pi_a, pi_b, y, weight) in pairs {
        mmsb_simd::theta_accumulate_pair(backend, &mut scratch.theta, pi_a, pi_b, y, weight);
    }
    mmsb_simd::theta_chunk_finish(&scratch.theta, out);
}
