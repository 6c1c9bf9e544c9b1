//! Property test: the snapshot's precomputed per-vertex community
//! order must agree with a full sort by (weight descending, community
//! id ascending) for every prefix length a query can ask for — the
//! first `min(K, TOP_K_CAP)` entries, which is all a snapshot ranks.
//!
//! Models are built through [`ModelSnapshot::from_planes`] so the test
//! controls the raw f32 plane exactly — including rows engineered to
//! hold exact ties, where only the id tie-break distinguishes a
//! correct order from a merely plausible one.

use mmsb_serve::{ModelSnapshot, TOP_K_CAP};
use mmsb_simd::Backend;

/// Deterministic xorshift64*, seeded per case; no shared state with
/// the library's own RNG so plane contents are stable across refactors.
struct XorShift(u64);

impl XorShift {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Build an `n x k` plane with a mix of random rows and adversarial
/// tie rows: constant rows, rows of few distinct values, and rows that
/// duplicate a random weight into several columns.
fn plane(n: usize, k: usize, seed: u64) -> Vec<f32> {
    let mut rng = XorShift(seed | 1);
    let mut pi = vec![0.0f32; n * k];
    for v in 0..n {
        let row = &mut pi[v * k..(v + 1) * k];
        match v % 4 {
            // All-tied row: order must be exactly 0..k.
            0 => row.fill(1.0 / k as f32),
            // Two distinct values, interleaved.
            1 => {
                for (c, w) in row.iter_mut().enumerate() {
                    *w = if c % 2 == 0 { 0.75 } else { 0.25 };
                }
            }
            // Random row with one weight duplicated into 3 slots.
            2 => {
                for w in row.iter_mut() {
                    *w = rng.next_f32();
                }
                let dup = row[0];
                for c in (0..k).step_by((k / 3).max(1)) {
                    row[c] = dup;
                }
            }
            // Fully random row.
            _ => {
                for w in row.iter_mut() {
                    *w = rng.next_f32();
                }
            }
        }
    }
    pi
}

/// Reference order: full sort of all k communities by weight
/// descending, ties broken by ascending community id.
fn reference_order(row: &[f32]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..row.len() as u32).collect();
    order.sort_by(|&x, &y| row[y as usize].total_cmp(&row[x as usize]).then(x.cmp(&y)));
    order
}

/// Model widths around the cap: below, at, one over, and K = 64 ± 1.
const KS: [usize; 10] = [1, 3, 8, 15, 16, 17, 33, 63, 64, 65];

#[test]
fn topk_matches_full_sort_for_all_prefixes() {
    for &cap_k in &KS {
        for seed in 0..4u64 {
            let n = 24;
            let pi = plane(n, cap_k, 0x9e37 + seed * 1031 + cap_k as u64);
            let beta = vec![0.5f64; cap_k];
            let snap = ModelSnapshot::from_planes(pi.clone(), beta, 1e-5, Backend::Scalar).unwrap();
            assert_eq!((snap.n(), snap.k()), (n, cap_k));
            let ranked = cap_k.min(TOP_K_CAP);
            assert_eq!(snap.ranked(), ranked);

            for v in 0..n {
                let row = &pi[v * cap_k..(v + 1) * cap_k];
                let want = reference_order(row);
                let got = snap.communities_by_weight(v);
                assert_eq!(got.len(), ranked, "K={cap_k} vertex={v}");
                // Prefix lengths a query can ask for: 1, everything,
                // and an over-ask (the server clamps k to snap.ranked()).
                for req in [1usize, cap_k, cap_k + 5] {
                    let k = req.min(ranked);
                    assert_eq!(
                        &got[..k],
                        &want[..k],
                        "K={cap_k} seed={seed} vertex={v} top-{k}"
                    );
                }
            }
        }
    }
}

#[test]
fn exact_ties_break_by_ascending_community_id() {
    // Every weight identical: the only valid order is 0, 1, .., k-1,
    // of which the snapshot ranks the first min(k, TOP_K_CAP).
    for &k in &KS {
        let pi = vec![0.125f32; 2 * k];
        let beta = vec![0.5f64; k];
        let snap = ModelSnapshot::from_planes(pi.clone(), beta, 1e-5, Backend::Scalar).unwrap();
        let want: Vec<u32> = (0..k.min(TOP_K_CAP) as u32).collect();
        for v in 0..2 {
            assert_eq!(snap.communities_by_weight(v), &want[..], "K={k}");
        }
    }
}

#[test]
fn member_lists_match_full_sort_with_vertex_tiebreak() {
    // The transposed property: per-community member order against a
    // full sort by (weight desc, vertex id asc).
    let (n, k) = (30usize, 8usize);
    let pi = plane(n, k, 0xabcdef);
    let beta = vec![0.5f64; k];
    let snap = ModelSnapshot::from_planes(pi.clone(), beta, 1e-5, Backend::Scalar).unwrap();
    for c in 0..k {
        let col: Vec<f32> = (0..n).map(|v| pi[v * k + c]).collect();
        let mut want: Vec<u32> = (0..n as u32).collect();
        want.sort_by(|&x, &y| col[y as usize].total_cmp(&col[x as usize]).then(x.cmp(&y)));
        assert_eq!(snap.members_by_weight(c), &want[..], "community {c}");
    }
}
