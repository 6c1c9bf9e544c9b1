//! The digamma function `psi(x) = d/dx ln Gamma(x)`.
//!
//! SVI's local step needs `E_q[log pi]` and `E_q[log beta]`, which are
//! digamma differences. Implemented with the standard recurrence
//! (`psi(x) = psi(x + 1) - 1/x`) to push the argument above 12, then the
//! asymptotic series — accurate to ~1e-12 for positive arguments.

/// Digamma for `x > 0`.
///
/// # Panics
/// Panics for non-positive or non-finite `x` (SVI parameters are always
/// strictly positive).
pub fn digamma(x: f64) -> f64 {
    assert!(
        x > 0.0 && x.is_finite(),
        "digamma requires positive finite argument, got {x}"
    );
    let mut x = x;
    let mut result = 0.0;
    while x < 12.0 {
        result -= 1.0 / x;
        x += 1.0;
    }
    // Asymptotic expansion: ln x - 1/(2x) - sum B_2n / (2n x^{2n}).
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    result += x.ln()
        - 0.5 * inv
        - inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0))));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values() {
        // psi(1) = -gamma (Euler–Mascheroni).
        assert!((digamma(1.0) + 0.577_215_664_901_532_9).abs() < 1e-12);
        // psi(1/2) = -gamma - 2 ln 2.
        let expected = -0.577_215_664_901_532_9 - 2.0 * std::f64::consts::LN_2;
        assert!((digamma(0.5) - expected).abs() < 1e-12);
        // psi(2) = 1 - gamma.
        assert!((digamma(2.0) - (1.0 - 0.577_215_664_901_532_9)).abs() < 1e-12);
    }

    #[test]
    fn recurrence_holds() {
        for x in [0.1, 0.7, 1.3, 2.5, 10.0, 100.0] {
            let lhs = digamma(x + 1.0);
            let rhs = digamma(x) + 1.0 / x;
            assert!((lhs - rhs).abs() < 1e-10, "x={x}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn monotone_increasing() {
        let mut prev = digamma(0.01);
        for i in 1..200 {
            let x = 0.01 + i as f64 * 0.5;
            let v = digamma(x);
            assert!(v > prev);
            prev = v;
        }
    }

    #[test]
    fn approaches_ln_for_large_x() {
        let x = 1e6;
        assert!((digamma(x) - x.ln()).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive() {
        digamma(0.0);
    }
}
