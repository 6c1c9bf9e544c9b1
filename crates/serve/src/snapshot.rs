//! The immutable, query-optimized model snapshot.
//!
//! A [`mmsb_core::Checkpoint`] stores what training needs (f32 `pi`
//! rows, `beta`, chain bookkeeping); a [`ModelSnapshot`] re-lays the
//! model out for what serving needs, paying all per-query work once at
//! build time:
//!
//! * `pi` widened to f64 and a second plane `pib[c] = pi[c] * beta[c]`,
//!   so Eq. 7 is exactly two f64 dot products per edge query —
//!   [`mmsb_simd::edge_dots`] computes both in one fused pass.
//! * Per vertex, the community ids pre-sorted by descending membership
//!   weight (ties by ascending community id), so a top-k query is a
//!   slice of the first `k` entries — no per-request selection.
//! * Per community, all vertex ids pre-sorted by descending weight
//!   (ties by ascending vertex id), so a community listing walks the
//!   prefix above its weight threshold and stops.
//!
//! Both orders are integer sorts of packed `(inverted weight bits, id)`
//! keys — no comparator: K keys per vertex row, and per community a
//! stable radix sort in which ascending arrival order is the id
//! tie-break. Large models are built over scoped threads, one
//! contiguous range of rows and of communities each; the planes do not
//! depend on the thread count (DESIGN.md §13 "Snapshot build").
//!
//! Snapshots are immutable after construction and shared via
//! `Arc<ModelSnapshot>` through [`crate::SnapshotCell`]; every accessor
//! takes `&self` and allocates nothing.

use mmsb_core::Checkpoint;
use mmsb_simd::Backend;

/// Why a checkpoint could not be turned into a servable snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The model has no vertices, no communities, or a `pi` plane
    /// whose length is not a multiple of `beta.len()`.
    EmptyModel,
    /// A membership weight or community strength is not finite.
    NonFinite {
        /// Which plane the bad value sits in.
        what: &'static str,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::EmptyModel => {
                write!(f, "model is empty or the pi plane does not match beta")
            }
            SnapshotError::NonFinite { what } => {
                write!(f, "model holds a non-finite {what} value")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// An immutable trained model laid out for serving. See the module
/// docs for the layout rationale.
pub struct ModelSnapshot {
    n: usize,
    k: usize,
    delta: f64,
    backend: Backend,
    /// `n x k` membership rows, widened to f64.
    pi: Vec<f64>,
    /// `n x k` rows of `pi[c] * beta[c]`.
    pib: Vec<f64>,
    /// Community strengths, length `k`.
    beta: Vec<f64>,
    /// `n x k`: per vertex, every community id sorted by descending
    /// weight, ties by ascending community id.
    topk: Vec<u32>,
    /// `k x n`: per community, every vertex id sorted by descending
    /// weight, ties by ascending vertex id.
    members: Vec<u32>,
}

impl ModelSnapshot {
    /// Build a snapshot from a checkpoint. `delta` is the
    /// inter-community link probability for Eq. 7 (it is a sampler
    /// hyperparameter, not part of the checkpoint artifact); `backend`
    /// picks the SIMD backend for edge queries.
    pub fn from_checkpoint(
        ckpt: &Checkpoint,
        delta: f64,
        backend: Backend,
    ) -> Result<Self, SnapshotError> {
        Self::from_planes(ckpt.pi(), ckpt.beta(), delta, backend)
    }

    /// Build a snapshot from raw model planes: `pi` flat row-major
    /// `n x k` (with `k = beta.len()` and `n = pi.len() / k`) and the
    /// community strengths `beta`. [`Self::from_checkpoint`] is this
    /// applied to a checkpoint's planes; callers with models from
    /// elsewhere (or tests constructing exact tie cases) use it
    /// directly.
    ///
    /// Large models are built on [`std::thread::available_parallelism`]
    /// scoped threads; the planes are identical at any thread count
    /// (see [`Self::from_planes_in`]).
    pub fn from_planes(
        src: &[f32],
        beta_src: &[f64],
        delta: f64,
        backend: Backend,
    ) -> Result<Self, SnapshotError> {
        let ranges = if src.len() < INLINE_BELOW {
            1
        } else {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        };
        Self::from_planes_in(src, beta_src, delta, backend, ranges)
    }

    /// [`Self::from_planes`] over an explicit number of ranges. Vertex
    /// rows and communities are each cut into `ranges` contiguous
    /// fixed ranges; range `r` fills its rows of `pi`/`pib`/`topk` and
    /// its communities' rows of `members`, the first range on the
    /// calling thread and every other on a scoped thread of its own.
    /// Each row and each column is computed from `src` and `beta`
    /// alone, so the output does not depend on `ranges`.
    ///
    /// Scoped threads and not `mmsb_pool::ThreadPool`: `POST
    /// /v1/reload` reaches this from inside a pool worker, where a
    /// nested `ThreadPool::run` executes its chunks inline.
    pub(crate) fn from_planes_in(
        src: &[f32],
        beta_src: &[f64],
        delta: f64,
        backend: Backend,
        ranges: usize,
    ) -> Result<Self, SnapshotError> {
        let k = beta_src.len();
        if k == 0 || src.is_empty() || !src.len().is_multiple_of(k) {
            return Err(SnapshotError::EmptyModel);
        }
        let n = src.len() / k;
        let beta = beta_src.to_vec();
        if beta.iter().any(|b| !b.is_finite()) {
            return Err(SnapshotError::NonFinite { what: "beta" });
        }
        let mut pi = vec![0.0f64; n * k];
        let mut pib = vec![0.0f64; n * k];
        let mut topk = vec![0u32; n * k];
        let mut members = vec![0u32; k * n];

        let ranges = ranges.max(1);
        let (rows_per, cols_per) = (n.div_ceil(ranges), k.div_ceil(ranges));
        let mut pi_parts = pi.chunks_mut(rows_per * k);
        let mut pib_parts = pib.chunks_mut(rows_per * k);
        let mut topk_parts = topk.chunks_mut(rows_per * k);
        let mut member_parts = members.chunks_mut(cols_per * n);
        // A range past the last row (or community) gets empty slices.
        let mut jobs = (0..ranges).map(|r| RangeJob {
            first_row: r * rows_per,
            pi: pi_parts.next().unwrap_or_default(),
            pib: pib_parts.next().unwrap_or_default(),
            topk: topk_parts.next().unwrap_or_default(),
            first_col: r * cols_per,
            members: member_parts.next().unwrap_or_default(),
        });
        let finite = std::thread::scope(|scope| {
            let mine = jobs.next().expect("ranges >= 1");
            let beta = &beta[..];
            let spawned: Vec<_> = jobs
                .map(|job| scope.spawn(move || job.run(src, beta)))
                .collect();
            let mut finite = mine.run(src, beta);
            for handle in spawned {
                finite &= handle.join().expect("snapshot build range panicked");
            }
            finite
        });
        if !finite {
            return Err(SnapshotError::NonFinite { what: "pi" });
        }

        Ok(Self {
            n,
            k,
            delta,
            backend,
            pi,
            pib,
            beta,
            topk,
            members,
        })
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of communities.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The inter-community link probability this snapshot serves
    /// Eq. 7 with.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Community strengths `beta`, length [`Self::k`].
    pub fn beta(&self) -> &[f64] {
        &self.beta
    }

    /// Membership weight of vertex `v` in community `c`.
    ///
    /// # Panics
    /// Panics if `v` or `c` is out of range.
    pub fn weight(&self, v: usize, c: usize) -> f64 {
        assert!(v < self.n && c < self.k);
        self.pi[v * self.k + c]
    }

    /// Every community id, sorted by descending membership weight of
    /// vertex `v` (ties by ascending community id). A top-k query is
    /// the first `k` entries.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn communities_by_weight(&self, v: usize) -> &[u32] {
        assert!(v < self.n, "vertex {v} out of range");
        &self.topk[v * self.k..(v + 1) * self.k]
    }

    /// Every vertex id, sorted by descending membership weight in
    /// community `c` (ties by ascending vertex id).
    ///
    /// # Panics
    /// Panics if `c` is out of range.
    pub fn members_by_weight(&self, c: usize) -> &[u32] {
        assert!(c < self.k, "community {c} out of range");
        &self.members[c * self.n..(c + 1) * self.n]
    }

    /// Eq. 7 link probability for the pair `(a, b)`:
    /// `sum_c pi_a pi_b beta_c + (1 - sum_c pi_a pi_b) * delta`, with
    /// the same-community mass clamped to 1 against f32 rounding. The
    /// two sums run as one fused [`mmsb_simd::edge_dots`] pass over the
    /// precomputed `pi`/`pib` planes.
    ///
    /// # Panics
    /// Panics if `a` or `b` is out of range.
    pub fn edge_likelihood(&self, a: usize, b: usize) -> f64 {
        assert!(a < self.n && b < self.n, "vertex out of range");
        let k = self.k;
        let (same, linked) = mmsb_simd::edge_dots(
            self.backend,
            &self.pi[a * k..(a + 1) * k],
            &self.pib[a * k..(a + 1) * k],
            &self.pi[b * k..(b + 1) * k],
        );
        linked + (1.0 - same.min(1.0)) * self.delta
    }
}

/// Models with fewer `pi` entries than this are built on the calling
/// thread: the whole build is then shorter than a few thread spawns.
const INLINE_BELOW: usize = 1 << 16;

/// Map a weight to a `u32` whose *ascending* order is `total_cmp`
/// *descending*: flip every bit of a negative and only the sign of a
/// non-negative (which makes unsigned order equal `total_cmp` order,
/// `-0.0 < +0.0` included), then complement. The f64 planes are exact
/// widenings of the f32 source, so this is also their order.
fn desc_key(w: f32) -> u32 {
    let bits = w.to_bits();
    let negative = ((bits as i32) >> 31) as u32;
    !(bits ^ (negative | 0x8000_0000))
}

/// [`desc_key`] above the id: ascending packed order is "descending
/// weight, ties by ascending id".
fn packed_key(w: f32, id: u32) -> u64 {
    (desc_key(w) as u64) << 32 | id as u64
}

/// One range's share of the four output planes (see
/// [`ModelSnapshot::from_planes_in`]).
struct RangeJob<'a> {
    first_row: usize,
    pi: &'a mut [f64],
    pib: &'a mut [f64],
    topk: &'a mut [u32],
    first_col: usize,
    members: &'a mut [u32],
}

impl RangeJob<'_> {
    /// Fill this range's planes; false iff one of its `pi` rows holds
    /// a non-finite weight.
    fn run(self, src: &[f32], beta: &[f64]) -> bool {
        let k = beta.len();
        let n = src.len() / k;
        #[cfg(test)]
        tests::note_range_thread(n);

        // Communities first: their scratch is freed again before this
        // range touches its share of the three larger planes, so it
        // never counts towards the peak. Radix-sort each column of `src`.
        if !self.members.is_empty() {
            let (mut a, mut b) = (vec![0u64; n], vec![0u64; n]);
            for (j, out) in self.members.chunks_exact_mut(n).enumerate() {
                let column = src[self.first_col + j..].iter().step_by(k);
                sort_column(column, &mut a, &mut b, out);
            }
        }

        // Rows: widen, scale by beta and sort the K packed keys.
        let mut finite = true;
        let mut keys = vec![0u64; k];
        let rows = src.chunks_exact(k).skip(self.first_row);
        let planes = self
            .pi
            .chunks_exact_mut(k)
            .zip(self.pib.chunks_exact_mut(k))
            .zip(self.topk.chunks_exact_mut(k));
        for (row, ((pi, pib), order)) in rows.zip(planes) {
            for (c, &p) in row.iter().enumerate() {
                finite &= p.is_finite();
                pi[c] = p as f64;
                pib[c] = pi[c] * beta[c];
                keys[c] = packed_key(p, c as u32);
            }
            keys.sort_unstable();
            for (slot, &key) in order.iter_mut().zip(&keys) {
                *slot = key as u32;
            }
        }
        finite
    }
}

/// Low, middle and high radix digit of a packed key's weight half:
/// 11 + 11 + 10 bits.
const DIGITS: [(u32, usize); 3] = [(32, 0x7ff), (43, 0x7ff), (54, 0x3ff)];

/// Write the vertex ids `0..n` to `out` by descending `column` weight,
/// ties by ascending id. A stable least-significant-digit radix sort
/// over the 32 [`desc_key`] bits: ids enter ascending and every pass
/// keeps equal digits in arrival order, so stability is the tie-break
/// and the id half of a key is carried, never compared. `a` and `b`
/// are `n`-element scratch.
fn sort_column<'a>(
    column: impl Iterator<Item = &'a f32>,
    a: &mut [u64],
    b: &mut [u64],
    out: &mut [u32],
) {
    // Gather the column once, counting all three digits on the way.
    let mut counts = [[0u32; 0x800]; 3];
    for (id, (slot, &w)) in a.iter_mut().zip(column).enumerate() {
        let key = packed_key(w, id as u32);
        for (count, (shift, mask)) in counts.iter_mut().zip(DIGITS) {
            count[(key >> shift) as usize & mask] += 1;
        }
        *slot = key;
    }
    // Counts to first output positions.
    for count in &mut counts {
        let mut next = 0;
        for slot in count.iter_mut() {
            next += std::mem::replace(slot, next);
        }
    }
    let [low, mid, high] = &mut counts;
    scatter(a, b, low, DIGITS[0], |key| key);
    scatter(b, a, mid, DIGITS[1], |key| key);
    scatter(a, out, high, DIGITS[2], |key| key as u32);
}

/// One stable radix pass: append each key of `from`, in order, to its
/// digit's run in `to`.
fn scatter<T>(
    from: &[u64],
    to: &mut [T],
    next: &mut [u32],
    (shift, mask): (u32, usize),
    emit: impl Fn(u64) -> T,
) {
    for &key in from {
        let slot = &mut next[(key >> shift) as usize & mask];
        to[*slot as usize] = emit(key);
        *slot += 1;
    }
}

impl std::fmt::Debug for ModelSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelSnapshot")
            .field("n", &self.n)
            .field("k", &self.k)
            .field("delta", &self.delta)
            .field("backend", &self.backend)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmsb_core::{ParallelSampler, SamplerConfig};
    use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};
    use mmsb_graph::heldout::HeldOut;
    use mmsb_pool::ThreadPool;
    use mmsb_rand::{Rng, Xoshiro256PlusPlus};
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    fn trained_checkpoint(k: usize, seed: u64) -> Checkpoint {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let gen = generate_planted(
            &PlantedConfig {
                num_vertices: 60,
                num_communities: k,
                mean_community_size: 22.0,
                memberships_per_vertex: 1.2,
                internal_degree: 8.0,
                background_degree: 0.5,
            },
            &mut rng,
        );
        let (graph, heldout) = HeldOut::split(&gen.graph, 30, &mut rng);
        let mut s =
            ParallelSampler::with_threads(graph, heldout, SamplerConfig::new(k).with_seed(seed), 1).unwrap();
        s.run(15);
        s.checkpoint()
    }

    #[test]
    fn edge_likelihood_matches_core_eval() {
        let ckpt = trained_checkpoint(3, 7);
        let delta = 1e-5;
        let snap = ModelSnapshot::from_checkpoint(&ckpt, delta, Backend::detect()).unwrap();
        let k = ckpt.k();
        for (a, b) in [(0usize, 1usize), (3, 40), (59, 59), (12, 0)] {
            let want = mmsb_core::eval::edge_likelihood(
                &ckpt.pi()[a * k..(a + 1) * k],
                &ckpt.pi()[b * k..(b + 1) * k],
                ckpt.beta(),
                delta,
            );
            let got = snap.edge_likelihood(a, b);
            // The snapshot associates (pi*beta)*pi instead of
            // (pi*pi)*beta, so agreement is to rounding, not bitwise.
            assert!(
                (got - want).abs() <= 1e-12 * (1.0 + want.abs()),
                "({a},{b}): {got} vs {want}"
            );
            assert!((0.0..=1.0).contains(&got), "({a},{b}): p = {got}");
        }
    }

    #[test]
    fn topk_order_is_descending_with_id_tiebreak() {
        let ckpt = trained_checkpoint(4, 3);
        let snap = ModelSnapshot::from_checkpoint(&ckpt, 1e-5, Backend::Scalar).unwrap();
        for v in 0..snap.n() {
            let order = snap.communities_by_weight(v);
            assert_eq!(order.len(), snap.k());
            for w in order.windows(2) {
                let (w0, w1) = (
                    snap.weight(v, w[0] as usize),
                    snap.weight(v, w[1] as usize),
                );
                assert!(
                    w0 > w1 || (w0 == w1 && w[0] < w[1]),
                    "vertex {v}: ({}, {w0}) before ({}, {w1})",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn member_lists_are_descending_and_complete() {
        let ckpt = trained_checkpoint(3, 11);
        let snap = ModelSnapshot::from_checkpoint(&ckpt, 1e-5, Backend::Scalar).unwrap();
        for c in 0..snap.k() {
            let members = snap.members_by_weight(c);
            assert_eq!(members.len(), snap.n());
            let mut seen = vec![false; snap.n()];
            for w in members.windows(2) {
                let (w0, w1) = (
                    snap.weight(w[0] as usize, c),
                    snap.weight(w[1] as usize, c),
                );
                assert!(w0 > w1 || (w0 == w1 && w[0] < w[1]), "community {c}");
            }
            for &m in members {
                seen[m as usize] = true;
            }
            assert!(seen.iter().all(|&s| s), "community {c} misses a vertex");
        }
    }

    #[test]
    fn all_backends_agree_on_edge_likelihood() {
        let ckpt = trained_checkpoint(5, 23);
        let reference = ModelSnapshot::from_checkpoint(&ckpt, 1e-4, Backend::Scalar).unwrap();
        for b in [Backend::Sse2, Backend::Avx2, Backend::Neon] {
            if !b.available() {
                continue;
            }
            let snap = ModelSnapshot::from_checkpoint(&ckpt, 1e-4, b).unwrap();
            for (a, v) in [(0usize, 5usize), (10, 59), (33, 33)] {
                let (got, want) = (snap.edge_likelihood(a, v), reference.edge_likelihood(a, v));
                assert!(
                    (got - want).abs() <= 1e-12 * (1.0 + want.abs()),
                    "{b}: ({a},{v})"
                );
            }
        }
    }

    // The oracle: the comparator build the radix pipeline replaced,
    // kept as the reference every plane is compared against bit for
    // bit, and the hook that records which OS thread ran each range.

    /// `(n, thread)` of every range run in this test process. Tests that
    /// read it build a model with an `n` no other test uses.
    static RANGE_THREADS: Mutex<Vec<(usize, ThreadId)>> = Mutex::new(Vec::new());

    pub(super) fn note_range_thread(n: usize) {
        RANGE_THREADS
            .lock()
            .expect("range thread log")
            .push((n, std::thread::current().id()));
    }

    fn range_threads(n: usize) -> Vec<ThreadId> {
        let log = RANGE_THREADS.lock().expect("range thread log");
        log.iter().filter(|e| e.0 == n).map(|e| e.1).collect()
    }

    impl ModelSnapshot {
        /// `from_planes` as it was before the packed-key pipeline: two
        /// finiteness scans, then one indirect-comparator sort per vertex
        /// and per community, on the calling thread.
        fn from_planes_reference(
            src: &[f32],
            beta_src: &[f64],
            delta: f64,
            backend: Backend,
        ) -> Result<Self, SnapshotError> {
            let k = beta_src.len();
            if k == 0 || src.is_empty() || !src.len().is_multiple_of(k) {
                return Err(SnapshotError::EmptyModel);
            }
            let n = src.len() / k;
            let beta = beta_src.to_vec();
            if beta.iter().any(|b| !b.is_finite()) {
                return Err(SnapshotError::NonFinite { what: "beta" });
            }
            if src.iter().any(|p| !p.is_finite()) {
                return Err(SnapshotError::NonFinite { what: "pi" });
            }
            let pi: Vec<f64> = src.iter().map(|&p| p as f64).collect();
            let mut pib = vec![0.0f64; n * k];
            for a in 0..n {
                for c in 0..k {
                    pib[a * k + c] = pi[a * k + c] * beta[c];
                }
            }

            // Per-vertex community order: descending weight, ties ascending id.
            let mut topk = vec![0u32; n * k];
            let mut order: Vec<u32> = Vec::with_capacity(k);
            for a in 0..n {
                let row = &pi[a * k..(a + 1) * k];
                order.clear();
                order.extend(0..k as u32);
                order.sort_unstable_by(|&x, &y| {
                    row[y as usize].total_cmp(&row[x as usize]).then(x.cmp(&y))
                });
                topk[a * k..(a + 1) * k].copy_from_slice(&order);
            }

            // Per-community member order: descending weight, ties ascending id.
            let mut members = vec![0u32; k * n];
            let mut vorder: Vec<u32> = Vec::with_capacity(n);
            for c in 0..k {
                vorder.clear();
                vorder.extend(0..n as u32);
                vorder.sort_unstable_by(|&x, &y| {
                    pi[x as usize * k + c]
                        .total_cmp(&pi[y as usize * k + c])
                        .reverse()
                        .then(x.cmp(&y))
                });
                members[c * n..(c + 1) * n].copy_from_slice(&vorder);
            }

            Ok(Self {
                n,
                k,
                delta,
                backend,
                pi,
                pib,
                beta,
                topk,
                members,
            })
        }
    }

    /// All four planes equal bit for bit (`-0.0` and `+0.0` differ).
    fn assert_same_planes(got: &ModelSnapshot, want: &ModelSnapshot, case: &str) {
        let bits = |plane: &[f64]| plane.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        assert_eq!((got.n, got.k), (want.n, want.k), "{case}: shape");
        assert!(bits(&got.pi) == bits(&want.pi), "{case}: pi plane differs");
        assert!(
            bits(&got.pib) == bits(&want.pib),
            "{case}: pib plane differs"
        );
        assert!(got.topk == want.topk, "{case}: topk plane differs");
        assert!(got.members == want.members, "{case}: members plane differs");
    }

    /// Finite weights a sort can get wrong: both zeros, subnormals of both
    /// signs, the extremes, and neighbours one ulp apart.
    const EDGE_WEIGHTS: [f32; 14] = [
        0.0,
        -0.0,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        1.0e-45, // smallest subnormal
        -1.0e-45,
        1.0e-40,
        f32::MAX,
        f32::MIN,
        1.0,
        1.0 + f32::EPSILON,
        1.0 - f32::EPSILON / 2.0,
        -1.0,
        0.5,
    ];

    /// An `n x k` plane mixing random weights with exact ties, edge
    /// values, whole tied columns and whole tied rows.
    fn plane(n: usize, k: usize, seed: u64) -> (Vec<f32>, Vec<f64>) {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let mut pi = vec![0.0f32; n * k];
        for w in pi.iter_mut() {
            *w = match rng.below_usize(8) {
                // Few distinct values: ties everywhere.
                0 | 1 => rng.below_usize(4) as f32 * 0.25,
                2 => EDGE_WEIGHTS[rng.below_usize(EDGE_WEIGHTS.len())],
                3 => -rng.next_f32(),
                _ => rng.next_f32(),
            };
        }
        // Whole tied columns (only stability orders them) and tied rows.
        for c in (0..k).step_by(5) {
            let tie = EDGE_WEIGHTS[rng.below_usize(EDGE_WEIGHTS.len())];
            for a in 0..n {
                if c % 2 == 0 || a % 3 != 0 {
                    pi[a * k + c] = tie;
                }
            }
        }
        for a in (0..n).step_by(7) {
            pi[a * k..(a + 1) * k].fill(1.0 / k as f32);
        }
        let beta = (0..k).map(|_| rng.next_f32() as f64 * 2.0 - 0.5).collect();
        (pi, beta)
    }

    #[test]
    fn every_plane_matches_the_comparator_build_at_every_range_count() {
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        let mut cases = 0;
        for k in [1usize, 2, 63, 64, 65] {
            for n in [1usize, 2, (threads - 1).max(1), threads + 1, 4_099] {
                for seed in 0..3u64 {
                    let (pi, beta) = plane(n, k, seed * 7_919 + (n * 131 + k) as u64);
                    let want =
                        ModelSnapshot::from_planes_reference(&pi, &beta, 1e-5, Backend::Scalar)
                            .unwrap();
                    for ranges in [1usize, 2, 3, 8] {
                        let got = ModelSnapshot::from_planes_in(
                            &pi,
                            &beta,
                            1e-5,
                            Backend::Scalar,
                            ranges,
                        )
                        .unwrap();
                        let case = format!("n={n} k={k} seed={seed} ranges={ranges}");
                        assert_same_planes(&got, &want, &case);
                        cases += 1;
                    }
                }
            }
        }
        assert!(cases >= 300, "{cases} cases");
    }

    #[test]
    fn packed_key_order_is_descending_weight_then_ascending_id() {
        let mut weights = EDGE_WEIGHTS.to_vec();
        weights.extend([
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fc0_0001),
            f32::EPSILON,
            0.1,
            0.1 + f32::EPSILON / 8.0,
        ]);
        let ids = [0u32, 1, 2, 63, 64, 65_535, 65_536, u32::MAX - 1, u32::MAX];
        for &w1 in &weights {
            for &w2 in &weights {
                for &i1 in &ids {
                    for &i2 in &ids {
                        let want = w2.total_cmp(&w1).then(i1.cmp(&i2)).is_lt();
                        assert_eq!(
                            packed_key(w1, i1) < packed_key(w2, i2),
                            want,
                            "({w1:?}, {i1}) vs ({w2:?}, {i2})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn non_finite_input_is_refused_from_any_range() {
        let (n, k) = (50usize, 6usize);
        let (pi, beta) = plane(n, k, 99);
        for ranges in [1usize, 2, 3, 8] {
            for at in [0, k - 1, n * k / 2, n * k - 1] {
                for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                    let mut pi = pi.clone();
                    pi[at] = bad;
                    let err =
                        ModelSnapshot::from_planes_in(&pi, &beta, 1e-5, Backend::Scalar, ranges)
                            .unwrap_err();
                    assert_eq!(err, SnapshotError::NonFinite { what: "pi" }, "at {at}");
                    // A bad beta is reported first, as before.
                    let mut beta = beta.clone();
                    beta[k - 1] = f64::NAN;
                    let err =
                        ModelSnapshot::from_planes_in(&pi, &beta, 1e-5, Backend::Scalar, ranges)
                            .unwrap_err();
                    assert_eq!(err, SnapshotError::NonFinite { what: "beta" });
                }
            }
        }
    }

    /// `POST /v1/reload` builds the snapshot from inside a pool worker,
    /// where a nested `ThreadPool::run` would run inline: the build must
    /// still fan out there.
    #[test]
    fn build_inside_a_pool_chunk_still_fans_out() {
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        // Shapes no other test in this crate builds.
        let (big_n, small_n, k) = (4_111usize, 37usize, 16usize);
        assert!(big_n * k >= INLINE_BELOW && small_n * k < INLINE_BELOW);
        let (big, beta) = plane(big_n, k, 5);
        let (small, _) = plane(small_n, k, 6);

        let built = Mutex::new(None);
        let pool = ThreadPool::new(2);
        pool.run(2, |_worker, chunk| {
            if chunk == 0 {
                let snap = ModelSnapshot::from_planes(&big, &beta, 1e-5, Backend::Scalar).unwrap();
                ModelSnapshot::from_planes(&small, &beta, 1e-5, Backend::Scalar).unwrap();
                *built.lock().unwrap() = Some((snap, std::thread::current().id()));
            }
        });
        let (snap, caller) = built.into_inner().unwrap().expect("chunk 0 ran");
        let want =
            ModelSnapshot::from_planes_reference(&big, &beta, 1e-5, Backend::Scalar).unwrap();
        assert_same_planes(&snap, &want, "built inside a pool chunk");

        let ran_on = range_threads(big_n);
        assert_eq!(ran_on.len(), threads, "one range per available core");
        assert_eq!(ran_on.iter().collect::<HashSet<_>>().len(), threads);
        assert!(ran_on.contains(&caller), "the caller runs a range itself");
        assert_eq!(range_threads(small_n), [caller], "small models run inline");
    }
}
