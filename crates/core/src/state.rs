//! The sampler's parameter state.
//!
//! Table I of the paper: `pi` and `phi` are `N x K` (the big state),
//! `theta` is `K x 2` and `beta` is `K` (the small, global state). For the
//! largest configuration the paper could not afford to keep both `pi` and
//! `phi`, storing `pi` plus `sum(phi)` instead and recomputing
//! `phi = pi * sum(phi)` (§III-A). [`ModelState`] implements both layouts
//! behind one accessor pair so the trade-off is benchmarkable.

use crate::config::StateLayout;
use crate::CoreError;
use mmsb_rand::dist::{Gamma, Sample};
use mmsb_rand::RngCore;

/// Smallest admissible `phi` entry; SGRLD's mirror trick (`|.|`) keeps
/// values positive, the clamp keeps them away from denormal/zero where the
/// `1/phi` gradient blows up.
pub const PHI_MIN: f64 = 1e-10;

/// Full parameter state of the a-MMSB sampler.
#[derive(Debug, Clone)]
pub struct ModelState {
    n: u32,
    k: usize,
    layout: StateLayout,
    /// `N x K` row-major, rows sum to 1 (f32, as in the paper's DKV rows).
    pi: Vec<f32>,
    /// `N` row sums of `phi` (PiSumPhi layout).
    phi_sum: Vec<f32>,
    /// `N x K` full phi (FullPhi layout; empty otherwise).
    phi: Vec<f64>,
    /// `K x 2` flat: `theta[2k]` is the non-link mass, `theta[2k + 1]` the
    /// link mass, so `beta_k = theta[2k+1] / (theta[2k] + theta[2k+1])`.
    theta: Vec<f64>,
    /// `K` community strengths, always kept consistent with `theta`.
    beta: Vec<f64>,
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
        layout: StateLayout,
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
        let mut pi = vec![0.0f32; nk];
        let mut phi_sum = vec![0.0f32; n as usize];
        let mut phi = match layout {
            StateLayout::FullPhi => vec![0.0f64; nk],
            StateLayout::PiSumPhi => Vec::new(),
        };
        let mut row = vec![0.0f64; k];
        for a in 0..n as usize {
            let mut sum = 0.0f64;
            for slot in row.iter_mut() {
                let x = g_alpha.sample(rng).max(PHI_MIN);
                *slot = x;
                sum += x;
            }
            phi_sum[a] = sum as f32;
            for (j, &x) in row.iter().enumerate() {
                pi[a * k + j] = (x / sum) as f32;
            }
            if layout == StateLayout::FullPhi {
                phi[a * k..(a + 1) * k].copy_from_slice(&row);
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
            layout,
            pi,
            phi_sum,
            phi,
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

    /// The configured layout.
    pub fn layout(&self) -> StateLayout {
        self.layout
    }

    /// The normalized membership row of vertex `a`.
    #[inline]
    pub fn pi_row(&self, a: u32) -> &[f32] {
        let i = a as usize * self.k;
        &self.pi[i..i + self.k]
    }

    /// Reconstruct the `phi` row of vertex `a` into `out` (f64).
    ///
    /// # Panics
    /// Panics if `out.len() != k`.
    pub fn phi_row(&self, a: u32, out: &mut [f64]) {
        assert_eq!(out.len(), self.k, "phi row buffer has wrong length");
        match self.layout {
            StateLayout::PiSumPhi => {
                let sum = self.phi_sum[a as usize] as f64;
                for (o, &p) in out.iter_mut().zip(self.pi_row(a)) {
                    *o = (p as f64 * sum).max(PHI_MIN);
                }
            }
            StateLayout::FullPhi => {
                let i = a as usize * self.k;
                out.copy_from_slice(&self.phi[i..i + self.k]);
            }
        }
    }

    /// Install a new `phi` row for vertex `a`, updating `pi` (and
    /// `sum(phi)` / `phi` per layout).
    ///
    /// # Panics
    /// Panics if `new_phi.len() != k` or any entry is non-positive/NaN.
    pub fn set_phi_row(&mut self, a: u32, new_phi: &[f64]) {
        assert_eq!(new_phi.len(), self.k, "phi row has wrong length");
        let sum: f64 = new_phi.iter().sum();
        assert!(
            sum > 0.0 && sum.is_finite(),
            "phi row for vertex {a} has invalid sum {sum}"
        );
        let i = a as usize * self.k;
        for (j, &x) in new_phi.iter().enumerate() {
            debug_assert!(x > 0.0, "phi[{a}][{j}] = {x} not positive");
            self.pi[i + j] = (x / sum) as f32;
        }
        self.phi_sum[a as usize] = sum as f32;
        if self.layout == StateLayout::FullPhi {
            self.phi[i..i + self.k].copy_from_slice(new_phi);
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

    /// Encode vertex `a`'s DKV row (`pi ++ sum(phi)`) into `out`.
    ///
    /// # Panics
    /// Panics if `out.len() != k + 1`.
    pub fn encode_dkv_row(&self, a: u32, out: &mut [f32]) {
        assert_eq!(out.len(), self.k + 1, "DKV row buffer has wrong length");
        out[..self.k].copy_from_slice(self.pi_row(a));
        out[self.k] = self.phi_sum[a as usize];
    }

    /// Decode a DKV row into vertex `a`'s state.
    pub fn apply_dkv_row(&mut self, a: u32, row: &[f32]) {
        assert_eq!(row.len(), self.k + 1, "DKV row has wrong length");
        let i = a as usize * self.k;
        self.pi[i..i + self.k].copy_from_slice(&row[..self.k]);
        self.phi_sum[a as usize] = row[self.k];
    }

    /// Approximate heap footprint of the per-vertex state in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.pi.len() * 4 + self.phi_sum.len() * 4 + self.phi.len() * 8
    }

    /// Flat views of the state arrays, in checkpoint order:
    /// `(pi, phi_sum, phi)`. `phi` is empty for [`StateLayout::PiSumPhi`].
    pub(crate) fn flat_arrays(&self) -> (&[f32], &[f32], &[f64]) {
        (&self.pi, &self.phi_sum, &self.phi)
    }

    /// Rebuild a state from checkpointed arrays. Dimensions are validated;
    /// values are trusted (the checkpoint layer checksums them).
    #[allow(clippy::too_many_arguments)] // mirrors the checkpoint record
    pub(crate) fn from_flat_arrays(
        n: u32,
        k: usize,
        layout: StateLayout,
        pi: Vec<f32>,
        phi_sum: Vec<f32>,
        phi: Vec<f64>,
        theta: Vec<f64>,
        beta: Vec<f64>,
    ) -> Result<Self, CoreError> {
        let nk = n as usize * k;
        let phi_expected = match layout {
            StateLayout::FullPhi => nk,
            StateLayout::PiSumPhi => 0,
        };
        if n == 0
            || k == 0
            || pi.len() != nk
            || phi_sum.len() != n as usize
            || phi.len() != phi_expected
            || theta.len() != 2 * k
            || beta.len() != k
        {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "checkpoint arrays do not match n={n} k={k} layout={layout:?}"
                ),
            });
        }
        Ok(Self {
            n,
            k,
            layout,
            pi,
            phi_sum,
            phi,
            theta,
            beta,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmsb_rand::Xoshiro256PlusPlus;

    fn state(layout: StateLayout) -> ModelState {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        ModelState::init(50, 4, layout, 0.5, (1.0, 1.0), &mut rng).unwrap()
    }

    #[test]
    fn init_produces_normalized_pi() {
        for layout in [StateLayout::PiSumPhi, StateLayout::FullPhi] {
            let s = state(layout);
            for a in 0..50 {
                let sum: f32 = s.pi_row(a).iter().sum();
                assert!((sum - 1.0).abs() < 1e-5, "{layout:?} a={a} sum={sum}");
                assert!(s.pi_row(a).iter().all(|&p| p > 0.0));
            }
        }
    }

    #[test]
    fn beta_consistent_with_theta() {
        let mut s = state(StateLayout::PiSumPhi);
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
    fn phi_roundtrip_full_layout_is_exact() {
        let mut s = state(StateLayout::FullPhi);
        let new_phi = vec![0.5, 1.5, 2.0, 4.0];
        s.set_phi_row(7, &new_phi);
        let mut got = vec![0.0; 4];
        s.phi_row(7, &mut got);
        assert_eq!(got, new_phi);
        assert!((s.pi_row(7)[3] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn phi_roundtrip_pisum_layout_is_close() {
        let mut s = state(StateLayout::PiSumPhi);
        let new_phi = vec![0.5, 1.5, 2.0, 4.0];
        s.set_phi_row(7, &new_phi);
        let mut got = vec![0.0; 4];
        s.phi_row(7, &mut got);
        for (g, e) in got.iter().zip(&new_phi) {
            assert!((g - e).abs() / e < 1e-5, "got {g} expected {e}");
        }
    }

    #[test]
    fn dkv_row_roundtrip() {
        let mut s = state(StateLayout::PiSumPhi);
        let mut row = vec![0.0f32; 5];
        s.encode_dkv_row(3, &mut row);
        let before: Vec<f32> = s.pi_row(3).to_vec();
        // Wipe and restore.
        s.apply_dkv_row(3, &[0.25f32, 0.25, 0.25, 0.25, 8.0]);
        assert_eq!(s.pi_row(3), &[0.25, 0.25, 0.25, 0.25]);
        s.apply_dkv_row(3, &row);
        assert_eq!(s.pi_row(3), &before[..]);
    }

    #[test]
    fn memory_accounting_reflects_layout() {
        let slim = state(StateLayout::PiSumPhi);
        let fat = state(StateLayout::FullPhi);
        assert!(fat.memory_bytes() > 2 * slim.memory_bytes());
    }

    #[test]
    #[should_panic(expected = "invalid sum")]
    fn set_phi_rejects_nan() {
        let mut s = state(StateLayout::PiSumPhi);
        s.set_phi_row(0, &[f64::NAN, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn rejects_zero_dims() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        assert!(ModelState::init(0, 4, StateLayout::PiSumPhi, 0.5, (1.0, 1.0), &mut rng).is_err());
        assert!(ModelState::init(5, 0, StateLayout::PiSumPhi, 0.5, (1.0, 1.0), &mut rng).is_err());
        assert!(ModelState::init(5, 4, StateLayout::PiSumPhi, 0.5, (0.0, 1.0), &mut rng).is_err());
        assert!(ModelState::init(5, 4, StateLayout::PiSumPhi, 0.0, (1.0, 1.0), &mut rng).is_err());
    }

    #[test]
    fn init_is_deterministic() {
        let mut r1 = Xoshiro256PlusPlus::seed_from_u64(2);
        let mut r2 = Xoshiro256PlusPlus::seed_from_u64(2);
        let a = ModelState::init(10, 3, StateLayout::PiSumPhi, 0.5, (1.0, 1.0), &mut r1).unwrap();
        let b = ModelState::init(10, 3, StateLayout::PiSumPhi, 0.5, (1.0, 1.0), &mut r2).unwrap();
        assert_eq!(a.pi_row(5), b.pi_row(5));
        assert_eq!(a.theta(), b.theta());
    }
}
