//! Order statistics over the samples a run collects.

/// Sorted copy of `xs`.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median (mean of the two middle values for an even count); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// (the exclusive method) gives them. A single sample is both its quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    assert!(n >= 1, "quartiles need a sample");
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |i: usize| {
        // 1-based position i * (n + 1) / 4: the index is clamped, the
        // interpolation weight is not (two samples extrapolate, as in Python)
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / m.abs()
    }
}

/// The `p`-quantile by nearest rank on the sorted samples; 0 for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    v[(((v.len() - 1) as f64) * p).round() as usize]
}

/// The highest percentile that still has at least ten samples beyond it
/// (p90 from 100 samples, p99 from 1000). Below 100 samples that percentile
/// sits near the median or under it, so the maximum is reported instead.
pub fn high_percentile(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n < 100 => v[n - 1],
        n => v[n - 11],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&xs) - 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let (q1, q3) = quartiles(&[3.0, 1.0]);
        assert!((q1 - 0.5).abs() < 1e-12 && (q3 - 3.5).abs() < 1e-12);
    }

    #[test]
    fn high_percentile_leaves_ten_beyond() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(high_percentile(&xs), 989.0);
        assert_eq!(high_percentile(&[4.0, 9.0]), 9.0);
    }
}
