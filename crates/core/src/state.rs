//! The sampler's parameter state.
//!
//! Table I of the paper: `pi` and `phi` are `N x K` (the big state),
//! `theta` is `K x 2` and `beta` is `K` (the small, global state). For the
//! largest configuration the paper could not afford to keep both `pi` and
//! `phi`, storing `pi` plus `sum(phi)` instead and recomputing
//! `phi = pi * sum(phi)` (§III-A). [`ModelState`] keeps that layout: the
//! `phi` rows of a batch are rebuilt from it when they are needed.

use crate::plane::Plane;
use crate::CoreError;
use mmsb_rand::dist::{Gamma, Sample};
use mmsb_rand::RngCore;

/// Smallest admissible `phi` entry; SGRLD's mirror trick (`|.|`) keeps
/// values positive, the clamp keeps them away from denormal/zero where the
/// `1/phi` gradient blows up.
pub const PHI_MIN: f64 = 1e-10;

/// Full parameter state of the a-MMSB sampler.
///
/// The two per-vertex planes are [`Plane`]s: a [`crate::Checkpoint`]
/// shares them, and the first write after a capture copies a plane only
/// while that checkpoint is alive. `Clone` is a deep copy.
#[derive(Debug)]
pub struct ModelState {
    n: u32,
    k: usize,
    /// `N x K` row-major, rows sum to 1 (f32, as in the paper's DKV
    /// rows), starting on a cache-line boundary.
    pi: Plane<f32>,
    /// `N` row sums of `phi`.
    phi_sum: Plane<f32>,
    /// `K x 2` flat: `theta[2k]` is the non-link mass, `theta[2k + 1]` the
    /// link mass, so `beta_k = theta[2k+1] / (theta[2k] + theta[2k+1])`.
    theta: Vec<f64>,
    /// `K` community strengths, always kept consistent with `theta`.
    beta: Vec<f64>,
}

impl Clone for ModelState {
    /// A deep copy: the clone's planes are its own, `pi` on a cache line.
    fn clone(&self) -> Self {
        Self {
            n: self.n,
            k: self.k,
            pi: self.pi.deep_clone(),
            phi_sum: self.phi_sum.deep_clone(),
            theta: self.theta.clone(),
            beta: self.beta.clone(),
        }
    }
}

impl ModelState {
    /// Initialize from the priors: `phi_ak ~ Gamma(alpha, 1)` (so the
    /// initial `pi` rows are draws from the `Dirichlet(alpha)` membership
    /// prior — for `alpha < 1` they are peaked on random communities,
    /// which breaks the label symmetry that otherwise collapses all mass
    /// into one community), `theta_ki ~ Gamma(eta_i, 1)`.
    pub fn init<R: RngCore>(
        n: u32,
        k: usize,
        alpha: f64,
        eta: (f64, f64),
        rng: &mut R,
    ) -> Result<Self, CoreError> {
        if k == 0 || n == 0 {
            return Err(CoreError::InvalidConfig {
                reason: format!("state needs n > 0 and k > 0, got n={n} k={k}"),
            });
        }
        let g_alpha = Gamma::new(alpha, 1.0).map_err(|e| CoreError::InvalidConfig {
            reason: format!("alpha: {e}"),
        })?;
        let g_eta0 = Gamma::new(eta.0, 1.0).map_err(|e| CoreError::InvalidConfig {
            reason: format!("eta0: {e}"),
        })?;
        let g_eta1 = Gamma::new(eta.1, 1.0).map_err(|e| CoreError::InvalidConfig {
            reason: format!("eta1: {e}"),
        })?;

        let nk = n as usize * k;
        let mut pi = Plane::zeroed(nk);
        let mut phi_sum = Plane::zeroed(n as usize);
        let (pi_mut, phi_sum_mut) = (pi.make_mut(), phi_sum.make_mut());
        let mut row = vec![0.0f64; k];
        for a in 0..n as usize {
            let mut sum = 0.0f64;
            for slot in row.iter_mut() {
                let x = g_alpha.sample(rng).max(PHI_MIN);
                *slot = x;
                sum += x;
            }
            phi_sum_mut[a] = sum as f32;
            for (j, &x) in row.iter().enumerate() {
                pi_mut[a * k + j] = (x / sum) as f32;
            }
        }

        let mut theta = vec![0.0f64; 2 * k];
        for c in 0..k {
            theta[2 * c] = g_eta0.sample(rng).max(PHI_MIN);
            theta[2 * c + 1] = g_eta1.sample(rng).max(PHI_MIN);
        }
        let mut state = Self {
            n,
            k,
            pi,
            phi_sum,
            theta,
            beta: vec![0.0; k],
        };
        state.recompute_beta();
        Ok(state)
    }

    /// Number of vertices.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Number of communities.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The normalized membership row of vertex `a`.
    #[inline]
    pub fn pi_row(&self, a: u32) -> &[f32] {
        let i = a as usize * self.k;
        &self.pi[i..i + self.k]
    }

    /// Reconstruct the `phi` row of vertex `a` into `out` (f64):
    /// `phi = pi * sum(phi)`, clamped to [`PHI_MIN`].
    ///
    /// # Panics
    /// Panics if `out.len() != k`.
    pub fn phi_row(&self, a: u32, out: &mut [f64]) {
        assert_eq!(out.len(), self.k, "phi row buffer has wrong length");
        let sum = self.phi_sum[a as usize] as f64;
        for (o, &p) in out.iter_mut().zip(self.pi_row(a)) {
            *o = (p as f64 * sum).max(PHI_MIN);
        }
    }

    /// Install a new `phi` row for vertex `a`, updating `pi` and
    /// `sum(phi)`.
    ///
    /// # Panics
    /// Panics if `new_phi.len() != k` or any entry is non-positive/NaN.
    pub fn set_phi_row(&mut self, a: u32, new_phi: &[f64]) {
        self.set_phi_rows([(a, new_phi)]);
    }

    /// [`ModelState::set_phi_row`] for each `(vertex, phi row)` of
    /// `rows`. The planes are made writable once for the whole batch:
    /// while a checkpoint shares them this copies each plane once, and
    /// otherwise it writes in place and allocates nothing.
    ///
    /// # Panics
    /// Panics if a row's length is not `k` or any entry is
    /// non-positive/NaN.
    pub fn set_phi_rows<'r>(&mut self, rows: impl IntoIterator<Item = (u32, &'r [f64])>) {
        let k = self.k;
        let (pi, phi_sum) = (self.pi.make_mut(), self.phi_sum.make_mut());
        for (a, new_phi) in rows {
            assert_eq!(new_phi.len(), k, "phi row has wrong length");
            let sum: f64 = new_phi.iter().sum();
            assert!(
                sum > 0.0 && sum.is_finite(),
                "phi row for vertex {a} has invalid sum {sum}"
            );
            let i = a as usize * k;
            for (j, &x) in new_phi.iter().enumerate() {
                debug_assert!(x > 0.0, "phi[{a}][{j}] = {x} not positive");
                pi[i + j] = (x / sum) as f32;
            }
            phi_sum[a as usize] = sum as f32;
        }
    }

    /// The flat `K x 2` theta vector.
    pub fn theta(&self) -> &[f64] {
        &self.theta
    }

    /// Mutable access to theta; call [`ModelState::recompute_beta`] after
    /// changing it.
    pub fn theta_mut(&mut self) -> &mut [f64] {
        &mut self.theta
    }

    /// Community strengths `beta`.
    pub fn beta(&self) -> &[f64] {
        &self.beta
    }

    /// Recompute `beta_k = theta_k1 / (theta_k0 + theta_k1)`.
    pub fn recompute_beta(&mut self) {
        for c in 0..self.k {
            let t0 = self.theta[2 * c];
            let t1 = self.theta[2 * c + 1];
            self.beta[c] = t1 / (t0 + t1);
        }
    }

    /// The state planes, in checkpoint order: `(pi, phi_sum)`. A
    /// checkpoint clones them to share them.
    pub(crate) fn planes(&self) -> (&Plane<f32>, &Plane<f32>) {
        (&self.pi, &self.phi_sum)
    }

    /// Overwrite this state with checkpointed arrays, copying into the
    /// live planes, so `pi` keeps its alignment and a restore never
    /// holds a second model (unless a checkpoint still shares the live
    /// planes: then each is copied once, as on any write). Lengths are validated against this state's
    /// dimensions; values are trusted (the checkpoint layer checksums
    /// them).
    pub(crate) fn copy_from_flat_arrays(
        &mut self,
        pi: &[f32],
        phi_sum: &[f32],
        theta: &[f64],
        beta: &[f64],
    ) -> Result<(), CoreError> {
        if pi.len() != self.pi.len()
            || phi_sum.len() != self.phi_sum.len()
            || theta.len() != self.theta.len()
            || beta.len() != self.beta.len()
        {
            return Err(CoreError::InvalidConfig {
                reason: format!("checkpoint arrays do not match n={} k={}", self.n, self.k),
            });
        }
        self.pi.make_mut().copy_from_slice(pi);
        self.phi_sum.make_mut().copy_from_slice(phi_sum);
        self.theta.copy_from_slice(theta);
        self.beta.copy_from_slice(beta);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmsb_rand::Xoshiro256PlusPlus;

    fn state() -> ModelState {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        ModelState::init(50, 4, 0.5, (1.0, 1.0), &mut rng).unwrap()
    }

    #[test]
    fn init_produces_normalized_pi() {
        let s = state();
        for a in 0..50 {
            let sum: f32 = s.pi_row(a).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "a={a} sum={sum}");
            assert!(s.pi_row(a).iter().all(|&p| p > 0.0));
        }
    }

    #[test]
    fn beta_consistent_with_theta() {
        let mut s = state();
        for c in 0..4 {
            let t0 = s.theta()[2 * c];
            let t1 = s.theta()[2 * c + 1];
            assert!((s.beta()[c] - t1 / (t0 + t1)).abs() < 1e-15);
            assert!(s.beta()[c] > 0.0 && s.beta()[c] < 1.0);
        }
        s.theta_mut()[0] = 3.0;
        s.theta_mut()[1] = 1.0;
        s.recompute_beta();
        assert!((s.beta()[0] - 0.25).abs() < 1e-15);
    }

    #[test]
    fn phi_roundtrip_pisum_layout_is_close() {
        let mut s = state();
        let new_phi = vec![0.5, 1.5, 2.0, 4.0];
        s.set_phi_row(7, &new_phi);
        let mut got = vec![0.0; 4];
        s.phi_row(7, &mut got);
        for (g, e) in got.iter().zip(&new_phi) {
            assert!((g - e).abs() / e < 1e-5, "got {g} expected {e}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid sum")]
    fn set_phi_rejects_nan() {
        let mut s = state();
        s.set_phi_row(0, &[f64::NAN, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn rejects_zero_dims() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        assert!(ModelState::init(0, 4, 0.5, (1.0, 1.0), &mut rng).is_err());
        assert!(ModelState::init(5, 0, 0.5, (1.0, 1.0), &mut rng).is_err());
        assert!(ModelState::init(5, 4, 0.5, (0.0, 1.0), &mut rng).is_err());
        assert!(ModelState::init(5, 4, 0.0, (1.0, 1.0), &mut rng).is_err());
    }

    fn assert_rows_aligned(s: &ModelState, tag: &str) {
        for a in 0..s.n() {
            let addr = s.pi_row(a).as_ptr() as usize;
            assert_eq!(addr % 64, 0, "{tag}: row {a} at {addr:#x}");
        }
    }

    /// `K = 16` and `K = 64` rows start on cache lines after `init` and
    /// `clone`, and a clone holds the same values in its own plane.
    #[test]
    fn pi_rows_are_cache_line_aligned() {
        for k in [16, 64] {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(k as u64);
            let s = ModelState::init(37, k, 0.5, (1.0, 1.0), &mut rng).unwrap();
            assert_rows_aligned(&s, &format!("init k={k}"));
            let c = s.clone();
            assert_rows_aligned(&c, &format!("clone k={k}"));
            assert_ne!(c.planes().0.as_ptr(), s.planes().0.as_ptr());
            assert_eq!(c.planes(), s.planes());
        }
    }

    #[test]
    fn copy_from_flat_arrays_rejects_wrong_lengths() {
        let mut s = state();
        let other = state();
        let (pi, phi_sum) = other.planes();
        let (theta, beta) = (other.theta().to_vec(), other.beta().to_vec());
        assert!(s
            .copy_from_flat_arrays(&pi[1..], phi_sum, &theta, &beta)
            .is_err());
        s.copy_from_flat_arrays(pi, phi_sum, &theta, &beta).unwrap();
        assert_eq!(s.planes(), other.planes());
    }

    #[test]
    fn init_is_deterministic() {
        let mut r1 = Xoshiro256PlusPlus::seed_from_u64(2);
        let mut r2 = Xoshiro256PlusPlus::seed_from_u64(2);
        let a = ModelState::init(10, 3, 0.5, (1.0, 1.0), &mut r1).unwrap();
        let b = ModelState::init(10, 3, 0.5, (1.0, 1.0), &mut r2).unwrap();
        assert_eq!(a.pi_row(5), b.pi_row(5));
        assert_eq!(a.theta(), b.theta());
    }
}
