//! Bounded-ULP accuracy of the vectorized ln against scalar `std`,
//! swept per *available hardware backend* (the in-crate unit tests pin
//! the emulations; this suite pins what actually runs on this host).
//!
//! Bounds (documented in DESIGN.md §12): fused backends (AVX2, NEON)
//! stay within 2 ulp, the unfused scalar backend within 4 ulp.

use mmsb_simd::{ulp_distance, vln, Backend};

fn bound(b: Backend) -> u64 {
    if b.fused() {
        2
    } else {
        4
    }
}

fn hosts() -> Vec<Backend> {
    let mut v = vec![Backend::Scalar];
    v.extend(
        [Backend::Avx2, Backend::Neon]
            .into_iter()
            .filter(|b| b.available()),
    );
    v
}

fn sweep(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| lo + (hi - lo) * (i as f64) / ((n - 1) as f64))
        .collect()
}

#[test]
fn ln_within_bound_of_std_per_backend() {
    let mut xs: Vec<f64> = Vec::new();
    // Log-spaced across the full normal range plus a dense near-1 band.
    let mut v = 1e-300f64;
    while v < 1e300 {
        xs.push(v);
        v *= 1.83;
    }
    xs.extend(sweep(0.5, 2.5, 20_001));
    for b in hosts() {
        let mut out = vec![0.0; xs.len()];
        vln(b, &xs, &mut out);
        let mut worst = 0u64;
        for (&x, &got) in xs.iter().zip(&out) {
            let want = x.ln();
            worst = worst.max(ulp_distance(got, want));
            assert!(
                ulp_distance(got, want) <= bound(b),
                "{b}: ln({x}) = {got} vs std {want}"
            );
        }
        eprintln!("ln/{b}: worst observed {worst} ulp (bound {})", bound(b));
    }
}

#[test]
fn perplexity_range_round_trip() {
    // The consumer feeds ln with clamped link probabilities in
    // [1e-300, 1]. Inverting with std `exp` must recover each
    // probability within the ln bound plus exp's own rounding.
    let probs: Vec<f64> = (1..=10_000).map(|i| i as f64 / 10_000.0).collect();
    for b in hosts() {
        let mut lns = vec![0.0; probs.len()];
        vln(b, &probs, &mut lns);
        for (&p, &l) in probs.iter().zip(&lns) {
            let r = l.exp();
            assert!(
                (r - p).abs() <= 1e-14 * p.max(1e-3),
                "{b}: round-trip {p} -> {r}"
            );
        }
    }
}
