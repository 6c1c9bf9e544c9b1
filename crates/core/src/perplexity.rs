//! Held-out perplexity (Eq. 7).
//!
//! The metric the paper's convergence plots (Figure 6) track: the
//! exponential of the negative average log-likelihood of the held-out
//! pairs, where the per-pair probability is *averaged over posterior
//! samples before* taking the log.

/// Marginal probability of observation `y` for a pair under the current
/// parameters — [`crate::eval::edge_likelihood`] (Eq. 7) for `y = true`,
/// its complement for `y = false`.
#[inline]
pub fn link_probability(pi_a: &[f32], pi_b: &[f32], beta: &[f64], delta: f64, y: bool) -> f64 {
    let p1 = crate::eval::edge_likelihood(pi_a, pi_b, beta, delta);
    if y {
        p1
    } else {
        1.0 - p1
    }
}

/// Accumulates per-pair probabilities across posterior samples and
/// reports the averaged perplexity of Eq. 7.
#[derive(Debug, Clone, PartialEq)]
pub struct PerplexityAccumulator {
    /// `sum_t p_t(y_i)` per held-out pair `i`.
    prob_sums: Vec<f64>,
    /// Number of samples `T` recorded so far.
    samples: u64,
}

impl PerplexityAccumulator {
    /// Create an accumulator for `num_pairs` held-out pairs.
    pub fn new(num_pairs: usize) -> Self {
        Self {
            prob_sums: vec![0.0; num_pairs],
            samples: 0,
        }
    }

    /// Number of held-out pairs tracked.
    pub fn num_pairs(&self) -> usize {
        self.prob_sums.len()
    }

    /// Number of posterior samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Record one posterior sample's per-pair probabilities (in the fixed
    /// held-out pair order).
    ///
    /// # Panics
    /// Panics if `probs.len()` differs from the accumulator size or any
    /// probability is outside `[0, 1]`.
    pub fn record(&mut self, probs: &[f64]) {
        assert_eq!(
            probs.len(),
            self.prob_sums.len(),
            "probability vector length mismatch"
        );
        for (s, &p) in self.prob_sums.iter_mut().zip(probs) {
            assert!((0.0..=1.0).contains(&p) && !p.is_nan(), "bad probability {p}");
            *s += p;
        }
        self.samples += 1;
    }

    /// Snapshot the internals for checkpointing: the per-pair probability
    /// sums and the sample count.
    pub fn snapshot(&self) -> (&[f64], u64) {
        (&self.prob_sums, self.samples)
    }

    /// Rebuild an accumulator from a checkpoint snapshot.
    pub fn from_snapshot(prob_sums: Vec<f64>, samples: u64) -> Self {
        Self { prob_sums, samples }
    }

    /// The averaged perplexity over everything recorded so far:
    /// `exp(-(1/|E_h|) sum_i log((1/T) sum_t p_t(y_i)))`.
    ///
    /// Returns `None` until at least one sample was recorded or if there
    /// are no pairs.
    pub fn value(&self) -> Option<f64> {
        if self.samples == 0 || self.prob_sums.is_empty() {
            return None;
        }
        let t = self.samples as f64;
        let mut log_sum = 0.0;
        for &s in &self.prob_sums {
            // Clamp: a pair the model finds impossible would otherwise
            // produce -inf and poison the whole metric.
            log_sum += (s / t).max(1e-300).ln();
        }
        Some((-log_sum / self.prob_sums.len() as f64).exp())
    }

    /// [`Self::value`] with the per-pair log taken by the vectorized
    /// `mmsb-simd` log on `backend`. Each log is within the documented
    /// ulp bound of `f64::ln`, so the metric agrees with [`Self::value`]
    /// to ~1e-15 relative. `scratch` must hold at least `2 * num_pairs`
    /// slots; it is pure scratch, letting hot loops avoid per-call
    /// allocation.
    pub fn value_with(&self, backend: mmsb_simd::Backend, scratch: &mut [f64]) -> Option<f64> {
        if self.samples == 0 || self.prob_sums.is_empty() {
            return None;
        }
        let n = self.prob_sums.len();
        assert!(scratch.len() >= 2 * n, "scratch needs 2 slots per pair");
        let t = self.samples as f64;
        let (ratios, logs) = scratch[..2 * n].split_at_mut(n);
        for (r, &s) in ratios.iter_mut().zip(&self.prob_sums) {
            // Same clamp as `value`: no pair may poison the metric with
            // -inf.
            *r = (s / t).max(1e-300);
        }
        mmsb_simd::vln(backend, ratios, logs);
        let log_sum: f64 = logs.iter().sum();
        Some((-log_sum / n as f64).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_probability_known_values() {
        // Both vertices fully in community 0 with beta_0 = 0.8.
        let pi = [1.0f32, 0.0];
        let beta = [0.8, 0.5];
        let p1 = link_probability(&pi, &pi, &beta, 0.01, true);
        assert!((p1 - 0.8).abs() < 1e-12);
        let p0 = link_probability(&pi, &pi, &beta, 0.01, false);
        assert!((p0 - 0.2).abs() < 1e-12);
        // Disjoint communities: only delta remains.
        let pi_b = [0.0f32, 1.0];
        let p1 = link_probability(&pi, &pi_b, &beta, 0.01, true);
        assert!((p1 - 0.01).abs() < 1e-12);
    }

    #[test]
    fn link_probability_is_a_probability() {
        let pi_a = [0.3f32, 0.5, 0.2];
        let pi_b = [0.1f32, 0.1, 0.8];
        let beta = [0.9, 0.2, 0.6];
        for delta in [1e-8, 0.01, 0.5] {
            let p1 = link_probability(&pi_a, &pi_b, &beta, delta, true);
            let p0 = link_probability(&pi_a, &pi_b, &beta, delta, false);
            assert!((0.0..=1.0).contains(&p1));
            assert!((p1 + p0 - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn accumulator_averages_before_log() {
        let mut acc = PerplexityAccumulator::new(2);
        acc.record(&[0.2, 0.8]);
        acc.record(&[0.4, 0.6]);
        // avg = [0.3, 0.7]; perp = exp(-(ln .3 + ln .7)/2).
        let expected = (-(0.3f64.ln() + 0.7f64.ln()) / 2.0).exp();
        assert!((acc.value().unwrap() - expected).abs() < 1e-12);
        assert_eq!(acc.samples(), 2);
    }

    #[test]
    fn perfect_predictions_give_perplexity_one() {
        let mut acc = PerplexityAccumulator::new(3);
        acc.record(&[1.0, 1.0, 1.0]);
        assert!((acc.value().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_or_unsampled_is_none() {
        assert_eq!(PerplexityAccumulator::new(0).value(), None);
        assert_eq!(PerplexityAccumulator::new(3).value(), None);
    }

    #[test]
    fn zero_probability_is_clamped_not_infinite() {
        let mut acc = PerplexityAccumulator::new(1);
        acc.record(&[0.0]);
        let v = acc.value().unwrap();
        assert!(v.is_finite() && v > 1e100);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn record_wrong_length_panics() {
        PerplexityAccumulator::new(2).record(&[0.5]);
    }

    #[test]
    #[should_panic(expected = "bad probability")]
    fn record_invalid_probability_panics() {
        PerplexityAccumulator::new(1).record(&[1.5]);
    }

    #[test]
    fn value_with_matches_scalar_value() {
        let mut acc = PerplexityAccumulator::new(64);
        let probs: Vec<f64> = (0..64).map(|i| 0.01 + 0.98 * (i as f64) / 63.0).collect();
        acc.record(&probs);
        acc.record(&probs.iter().map(|p| 1.0 - p * 0.5).collect::<Vec<_>>());
        let scalar = acc.value().unwrap();
        let mut scratch = vec![0.0; 128];
        for b in crate::config::available_backends() {
            let got = acc.value_with(b, &mut scratch).unwrap();
            assert!(
                (got - scalar).abs() <= 1e-12 * scalar,
                "{b}: {got} vs {scalar}"
            );
        }
    }

    #[test]
    fn better_predictions_lower_perplexity() {
        let mut good = PerplexityAccumulator::new(2);
        good.record(&[0.9, 0.9]);
        let mut bad = PerplexityAccumulator::new(2);
        bad.record(&[0.5, 0.5]);
        assert!(good.value().unwrap() < bad.value().unwrap());
    }
}
