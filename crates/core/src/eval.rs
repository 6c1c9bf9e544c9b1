//! Scoring recovered communities against planted ground truth.
//!
//! The SNAP datasets ship ground-truth communities, and the synthetic
//! stand-ins provide them too; the standard recovery score for overlapping
//! community detection is the average best-match F1 in both directions
//! (Yang & Leskovec 2013).

use mmsb_graph::generate::GroundTruth;
use mmsb_graph::VertexId;
use std::collections::BTreeSet;

/// The paper's Eq. 7 edge likelihood, the one shared implementation
/// behind held-out perplexity ([`crate::link_probability`]),
/// link-prediction evaluation, and the online serving layer
/// (`mmsb-serve`):
///
/// `p(y_ab = 1) = sum_k pi_ak pi_bk beta_k + (1 - sum_k pi_ak pi_bk) delta`
///
/// `pi` rows are the `f32` memberships the samplers store (derived from
/// `phi` by the exact `pi = phi / S` collapse); products are widened to
/// `f64` before accumulating. Because each row sums to 1 only up to
/// `f32` rounding, the common-community mass `sum_k pi_ak pi_bk` can
/// land a few ulps above 1 — it is clamped so the returned value is
/// always a probability.
///
/// # Panics
/// Panics (debug) if either `pi` row is shorter than `beta`.
#[inline]
pub fn edge_likelihood(pi_a: &[f32], pi_b: &[f32], beta: &[f64], delta: f64) -> f64 {
    let k = beta.len();
    debug_assert!(pi_a.len() >= k && pi_b.len() >= k);
    let mut same = 0.0f64; // sum_k pi_ak pi_bk
    let mut linked = 0.0f64; // sum_k pi_ak pi_bk beta_k
    for c in 0..k {
        let p = pi_a[c] as f64 * pi_b[c] as f64;
        same += p;
        linked += p * beta[c];
    }
    // Guard against f32 rounding pushing `same` past 1.
    let same = same.min(1.0);
    linked + (1.0 - same) * delta
}

/// F1 score of one detected set against one truth set.
pub fn f1_of_sets(detected: &[VertexId], truth: &[VertexId]) -> f64 {
    if detected.is_empty() && truth.is_empty() {
        return 1.0;
    }
    if detected.is_empty() || truth.is_empty() {
        return 0.0;
    }
    let t: BTreeSet<_> = truth.iter().collect();
    let hits = detected.iter().filter(|v| t.contains(v)).count() as f64;
    if hits == 0.0 {
        return 0.0;
    }
    let precision = hits / detected.len() as f64;
    let recall = hits / truth.len() as f64;
    2.0 * precision * recall / (precision + recall)
}

/// Jaccard similarity of two vertex sets.
pub fn jaccard_of_sets(a: &[VertexId], b: &[VertexId]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let sa: BTreeSet<_> = a.iter().collect();
    let sb: BTreeSet<_> = b.iter().collect();
    let inter = sa.intersection(&sb).count() as f64;
    let union = sa.union(&sb).count() as f64;
    inter / union
}

fn best_match_average(
    from: &[Vec<VertexId>],
    to: &[Vec<VertexId>],
    score: fn(&[VertexId], &[VertexId]) -> f64,
) -> f64 {
    let nonempty: Vec<&Vec<VertexId>> = from.iter().filter(|c| !c.is_empty()).collect();
    if nonempty.is_empty() {
        return 0.0;
    }
    nonempty
        .iter()
        .map(|c| to.iter().map(|t| score(c, t)).fold(0.0, f64::max))
        .sum::<f64>()
        / nonempty.len() as f64
}

/// Average bidirectional best-match F1 between detected communities and
/// ground truth: `0.5 * (avg_d max_t F1(d, t) + avg_t max_d F1(t, d))`.
/// 1.0 means perfect recovery; empty inputs score 0.
pub fn best_match_f1(detected: &[Vec<VertexId>], truth: &GroundTruth) -> f64 {
    let d_to_t = best_match_average(detected, &truth.communities, f1_of_sets);
    let t_to_d = best_match_average(&truth.communities, detected, f1_of_sets);
    0.5 * (d_to_t + t_to_d)
}

/// Average bidirectional best-match Jaccard (stricter than F1).
pub fn best_match_jaccard(detected: &[Vec<VertexId>], truth: &GroundTruth) -> f64 {
    let d_to_t = best_match_average(detected, &truth.communities, jaccard_of_sets);
    let t_to_d = best_match_average(&truth.communities, detected, jaccard_of_sets);
    0.5 * (d_to_t + t_to_d)
}

/// Binary entropy contribution `-p log p` (0 at `p = 0`).
fn h(p: f64) -> f64 {
    if p <= 0.0 {
        0.0
    } else {
        -p * p.ln()
    }
}

/// Entropy of a binary membership variable with positive rate `p`.
fn h2(p: f64) -> f64 {
    h(p) + h(1.0 - p)
}

/// Normalized conditional entropy `H(X|Y)_norm` of cover `x` given cover
/// `y` — one half of the overlapping NMI of Lancichinetti, Fortunato &
/// Kertész (2009).
fn conditional_entropy_norm(x: &[Vec<VertexId>], y: &[Vec<VertexId>], n: usize) -> f64 {
    let nf = n as f64;
    let y_sets: Vec<BTreeSet<&VertexId>> = y.iter().map(|c| c.iter().collect()).collect();
    let mut total = 0.0;
    let mut counted = 0usize;
    for xi in x {
        if xi.is_empty() {
            continue;
        }
        let px = xi.len() as f64 / nf;
        let hx = h2(px);
        if hx == 0.0 {
            continue;
        }
        let xi_set: BTreeSet<&VertexId> = xi.iter().collect();
        let mut best = hx; // fall back to H(X_i) when no admissible match
        for (yj, yj_set) in y.iter().zip(&y_sets) {
            if yj.is_empty() {
                continue;
            }
            let both = xi_set.intersection(yj_set).count() as f64 / nf;
            let only_x = px - both;
            let py = yj.len() as f64 / nf;
            let only_y = py - both;
            let neither = 1.0 - both - only_x - only_y;
            // LFK admissibility: reject complementary-looking matches.
            if h(both) + h(neither) < h(only_x) + h(only_y) {
                continue;
            }
            let joint = h(both) + h(only_x) + h(only_y) + h(neither);
            let cond = joint - h2(py); // H(X_i, Y_j) - H(Y_j)
            if cond < best {
                best = cond;
            }
        }
        total += best / hx;
        counted += 1;
    }
    if counted == 0 {
        1.0 // an empty cover carries no information about the other
    } else {
        total / counted as f64
    }
}

/// Overlapping normalized mutual information (LFK variant) between a
/// detected cover and the ground truth, over `num_vertices` vertices:
/// `1 - (H(X|Y)_norm + H(Y|X)_norm) / 2`. 1.0 means identical covers.
pub fn overlapping_nmi(detected: &[Vec<VertexId>], truth: &GroundTruth, num_vertices: u32) -> f64 {
    let n = num_vertices as usize;
    assert!(n > 0, "need at least one vertex");
    let hxy = conditional_entropy_norm(detected, &truth.communities, n);
    let hyx = conditional_entropy_norm(&truth.communities, detected, n);
    1.0 - 0.5 * (hxy + hyx)
}

/// Area under the ROC curve for held-out link prediction: `probs[i]` is
/// the model's `p(y = 1)` and `labels[i]` the observation. Ties are
/// handled with the midrank convention. Returns `None` if either class is
/// absent.
pub fn link_prediction_auc(probs: &[f64], labels: &[bool]) -> Option<f64> {
    assert_eq!(probs.len(), labels.len(), "probs/labels length mismatch");
    let positives = labels.iter().filter(|&&y| y).count();
    let negatives = labels.len() - positives;
    if positives == 0 || negatives == 0 {
        return None;
    }
    let mut order: Vec<usize> = (0..probs.len()).collect();
    order.sort_by(|&i, &j| probs[i].partial_cmp(&probs[j]).expect("finite probs"));
    // Midranks over ties.
    let mut rank_sum = 0.0f64;
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && probs[order[j + 1]] == probs[order[i]] {
            j += 1;
        }
        let midrank = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            if labels[idx] {
                rank_sum += midrank;
            }
        }
        i = j + 1;
    }
    let p = positives as f64;
    let n = negatives as f64;
    Some((rank_sum - p * (p + 1.0) / 2.0) / (p * n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(ids: &[u32]) -> Vec<VertexId> {
        ids.iter().map(|&i| VertexId(i)).collect()
    }

    /// Naive O(K) reference for Eq. 7: two separate passes, no clamp
    /// tricks, accumulation order identical to reading the formula.
    fn naive_edge_likelihood(pi_a: &[f32], pi_b: &[f32], beta: &[f64], delta: f64) -> f64 {
        let same: f64 = (0..beta.len())
            .map(|c| pi_a[c] as f64 * pi_b[c] as f64)
            .sum();
        let linked: f64 = (0..beta.len())
            .map(|c| pi_a[c] as f64 * pi_b[c] as f64 * beta[c])
            .sum();
        linked + (1.0 - same.min(1.0)) * delta
    }

    /// Tiny xorshift for seeded test vectors (no dev-dependency needed).
    fn rng_stream(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A pi row built the way the samplers build them: positive phi
    /// scores collapsed by the exact `pi = phi / S` relation, stored f32.
    fn collapsed_pi_row(k: usize, next: &mut impl FnMut() -> f64) -> Vec<f32> {
        let phi: Vec<f64> = (0..k).map(|_| 1e-10 + next() * 3.0).collect();
        let s: f64 = phi.iter().sum();
        phi.iter().map(|&p| (p / s) as f32).collect()
    }

    #[test]
    fn edge_likelihood_matches_naive_reference_seeded() {
        for &k in &[1usize, 2, 3, 8, 33, 257] {
            let mut next = rng_stream(k as u64 + 101);
            for case in 0..8 {
                let pi_a = collapsed_pi_row(k, &mut next);
                let pi_b = collapsed_pi_row(k, &mut next);
                let beta: Vec<f64> = (0..k).map(|_| next()).collect();
                let delta = [1e-8, 1e-5, 0.01, 0.3][case % 4];
                let got = edge_likelihood(&pi_a, &pi_b, &beta, delta);
                let expect = naive_edge_likelihood(&pi_a, &pi_b, &beta, delta);
                assert!(
                    (got - expect).abs() <= 1e-14 * (1.0 + expect.abs()),
                    "k={k} case={case}: {got} vs {expect}"
                );
                assert!((0.0..=1.0).contains(&got), "k={k}: p = {got}");
            }
        }
    }

    #[test]
    fn edge_likelihood_collapse_edge_cases() {
        // Full overlap in one community: p = beta exactly.
        assert_eq!(
            edge_likelihood(&[1.0, 0.0], &[1.0, 0.0], &[0.8, 0.5], 0.01),
            0.8
        );
        // Disjoint support: only the background rate remains.
        let p = edge_likelihood(&[1.0, 0.0], &[0.0, 1.0], &[0.8, 0.5], 0.01);
        assert!((p - 0.01).abs() < 1e-15);
        // K = 1 is total collapse: pi = phi/S = 1 for every vertex, so
        // the delta term vanishes identically.
        assert_eq!(edge_likelihood(&[1.0], &[1.0], &[0.37], 0.9), 0.37);
        // Rows whose f32 sum exceeds 1: `same` must clamp so p stays a
        // probability even with beta = 1 everywhere.
        let k = 3000;
        let w = (1.0f64 / k as f64) as f32;
        // nextafter(w) so the row sums slightly above 1.
        let w_up = f32::from_bits(w.to_bits() + 1);
        let row = vec![w_up; k];
        let beta = vec![1.0f64; k];
        let p = edge_likelihood(&row, &row, &beta, 1.0);
        assert!((0.0..=1.0).contains(&p), "clamped probability, got {p}");
        // And the identical-rows diagonal with beta = 1, delta = 0 is the
        // squared norm — strictly positive, at most 1.
        let p = edge_likelihood(&row, &row, &beta, 0.0);
        assert!(p > 0.0 && p <= 1.0);
    }

    #[test]
    fn edge_likelihood_agrees_with_link_probability() {
        let mut next = rng_stream(7);
        let pi_a = collapsed_pi_row(16, &mut next);
        let pi_b = collapsed_pi_row(16, &mut next);
        let beta: Vec<f64> = (0..16).map(|_| next()).collect();
        let p1 = edge_likelihood(&pi_a, &pi_b, &beta, 1e-5);
        assert_eq!(crate::link_probability(&pi_a, &pi_b, &beta, 1e-5, true), p1);
        assert_eq!(
            crate::link_probability(&pi_a, &pi_b, &beta, 1e-5, false),
            1.0 - p1
        );
    }

    #[test]
    fn f1_identical_sets() {
        assert_eq!(f1_of_sets(&v(&[1, 2, 3]), &v(&[3, 2, 1])), 1.0);
    }

    #[test]
    fn f1_disjoint_sets() {
        assert_eq!(f1_of_sets(&v(&[1, 2]), &v(&[3, 4])), 0.0);
    }

    #[test]
    fn f1_partial_overlap() {
        // detected {1,2}, truth {2,3}: p = r = 0.5 → F1 = 0.5.
        assert!((f1_of_sets(&v(&[1, 2]), &v(&[2, 3])) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn f1_empty_cases() {
        assert_eq!(f1_of_sets(&[], &[]), 1.0);
        assert_eq!(f1_of_sets(&v(&[1]), &[]), 0.0);
        assert_eq!(f1_of_sets(&[], &v(&[1])), 0.0);
    }

    #[test]
    fn jaccard_values() {
        assert_eq!(jaccard_of_sets(&v(&[1, 2]), &v(&[1, 2])), 1.0);
        assert!((jaccard_of_sets(&v(&[1, 2]), &v(&[2, 3])) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jaccard_of_sets(&[], &[]), 1.0);
    }

    #[test]
    fn perfect_recovery_scores_one() {
        let truth = GroundTruth {
            communities: vec![v(&[0, 1, 2]), v(&[3, 4])],
        };
        let detected = vec![v(&[3, 4]), v(&[0, 1, 2])]; // order must not matter
        assert!((best_match_f1(&detected, &truth) - 1.0).abs() < 1e-12);
        assert!((best_match_jaccard(&detected, &truth) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spurious_detected_communities_lower_the_score() {
        let truth = GroundTruth {
            communities: vec![v(&[0, 1, 2])],
        };
        let perfect = vec![v(&[0, 1, 2])];
        let noisy = vec![v(&[0, 1, 2]), v(&[7, 8, 9])];
        assert!(best_match_f1(&noisy, &truth) < best_match_f1(&perfect, &truth));
    }

    #[test]
    fn missed_truth_communities_lower_the_score() {
        let truth = GroundTruth {
            communities: vec![v(&[0, 1, 2]), v(&[5, 6, 7])],
        };
        let partial = vec![v(&[0, 1, 2])];
        let s = best_match_f1(&partial, &truth);
        assert!(s < 0.8, "score {s}");
        assert!(s > 0.4, "score {s}");
    }

    #[test]
    fn onmi_identical_covers_is_one() {
        let truth = GroundTruth {
            communities: vec![v(&[0, 1, 2, 3]), v(&[4, 5, 6, 7]), v(&[2, 3, 4])],
        };
        let detected = vec![v(&[2, 3, 4]), v(&[0, 1, 2, 3]), v(&[4, 5, 6, 7])];
        let nmi = overlapping_nmi(&detected, &truth, 8);
        assert!((nmi - 1.0).abs() < 1e-12, "nmi = {nmi}");
    }

    #[test]
    fn onmi_unrelated_covers_is_low() {
        // Detected communities carved orthogonally to the truth.
        let truth = GroundTruth {
            communities: vec![v(&[0, 1, 2, 3]), v(&[4, 5, 6, 7])],
        };
        let detected = vec![v(&[0, 2, 4, 6]), v(&[1, 3, 5, 7])];
        let nmi = overlapping_nmi(&detected, &truth, 8);
        assert!(nmi < 0.2, "nmi = {nmi}");
    }

    #[test]
    fn onmi_partial_recovery_is_between() {
        let truth = GroundTruth {
            communities: vec![v(&[0, 1, 2, 3, 4]), v(&[5, 6, 7, 8, 9])],
        };
        let detected = vec![v(&[0, 1, 2, 3]), v(&[5, 6, 7, 9])];
        let nmi = overlapping_nmi(&detected, &truth, 10);
        assert!(nmi > 0.3 && nmi < 1.0, "nmi = {nmi}");
    }

    #[test]
    fn onmi_empty_detected_is_zero_ish() {
        let truth = GroundTruth {
            communities: vec![v(&[0, 1, 2, 3])],
        };
        // No information in either direction: conditional entropies fall
        // back to the marginals.
        let nmi = overlapping_nmi(&[], &truth, 8);
        assert!(nmi <= 0.0 + 1e-12, "nmi = {nmi}");
    }

    #[test]
    fn onmi_is_symmetric() {
        let a = vec![v(&[0, 1, 2]), v(&[3, 4, 5, 6])];
        let b = GroundTruth {
            communities: vec![v(&[0, 1, 2, 3]), v(&[4, 5, 6])],
        };
        let ab = overlapping_nmi(&a, &b, 8);
        let ba = overlapping_nmi(&b.communities, &GroundTruth { communities: a }, 8);
        assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn auc_perfect_separation_is_one() {
        let probs = [0.9, 0.8, 0.2, 0.1];
        let labels = [true, true, false, false];
        assert!((link_prediction_auc(&probs, &labels).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn auc_inverted_is_zero() {
        let probs = [0.1, 0.2, 0.8, 0.9];
        let labels = [true, true, false, false];
        assert!(link_prediction_auc(&probs, &labels).unwrap() < 1e-12);
    }

    #[test]
    fn auc_random_is_half_with_ties() {
        // All probabilities equal: midranks give exactly 0.5.
        let probs = [0.5; 6];
        let labels = [true, false, true, false, true, false];
        assert!((link_prediction_auc(&probs, &labels).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auc_known_value() {
        // probs: pos {0.8, 0.4}, neg {0.6, 0.2}. Pairs: (0.8>0.6),(0.8>0.2),
        // (0.4<0.6),(0.4>0.2) => 3/4.
        let probs = [0.8, 0.4, 0.6, 0.2];
        let labels = [true, true, false, false];
        assert!((link_prediction_auc(&probs, &labels).unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn auc_single_class_is_none() {
        assert!(link_prediction_auc(&[0.5, 0.6], &[true, true]).is_none());
        assert!(link_prediction_auc(&[], &[]).is_none());
    }

    #[test]
    fn empty_detected_scores_zero_forward() {
        let truth = GroundTruth {
            communities: vec![v(&[0, 1])],
        };
        // All-empty detected: forward average is over no sets → 0, reverse
        // best-match is 0 → total 0.
        assert_eq!(best_match_f1(&[vec![], vec![]], &truth), 0.0);
    }
}
