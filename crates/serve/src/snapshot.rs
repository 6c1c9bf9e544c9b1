//! The immutable, query-optimized model snapshot.
//!
//! A [`mmsb_core::Checkpoint`] stores what training needs (f32 `pi`
//! rows, `beta`, chain bookkeeping); a [`ModelSnapshot`] re-lays the
//! model out for what serving needs, paying all per-query work once at
//! build time:
//!
//! * `pi` held once, as the checkpoint's f32 plane (shared or moved
//!   in, never copied): Eq. 7 is two f64 dot products per edge query, and
//!   [`mmsb_simd::edge_dots_f32`] computes both in one fused pass,
//!   widening the rows and forming `pi[c] * beta[c]` in registers.
//! * Per vertex, its [`TOP_K_CAP`] (16) heaviest community ids — all K
//!   when K is smaller — by descending membership weight (ties by
//!   ascending community id), so a top-k query is a slice of the first
//!   `k` entries — no per-request selection. With the a-MMSB prior
//!   α = 1/K a row's mass sits on a few communities; a query for more
//!   than [`ModelSnapshot::ranked`] gets that many.
//! * Per community, all vertex ids pre-sorted by descending weight
//!   (ties by ascending vertex id), so a community listing walks the
//!   prefix above its weight threshold and stops.
//!
//! Both orders are integer orders of packed `(inverted weight bits, id)`
//! keys — no comparator: per vertex row a top-16 selection of its K
//! keys, and per community a stable radix sort in which ascending
//! arrival order is the id tie-break, its keys staged from row tiles of
//! a few communities. Large models are built over scoped threads, one
//! contiguous range of rows and of communities each; the planes do not
//! depend on the thread count (DESIGN.md §13 "Snapshot build").
//!
//! Snapshots are immutable after construction and shared via
//! `Arc<ModelSnapshot>` through [`crate::SnapshotCell`]; every accessor
//! takes `&self` and allocates nothing.

use mmsb_core::{Checkpoint, Plane};
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
    /// `n x k` membership rows, the checkpoint's f32 plane.
    pi: Plane<f32>,
    /// Community strengths, length `k`.
    beta: Vec<f64>,
    /// `n x min(k, TOP_K_CAP)`: per vertex, its heaviest community ids
    /// by descending weight, ties by ascending community id.
    topk: Vec<u32>,
    /// `k x n`: per community, every vertex id sorted by descending
    /// weight, ties by ascending vertex id.
    members: Vec<u32>,
}

/// How many communities a snapshot ranks per vertex: `topk` holds each
/// vertex's `min(K, TOP_K_CAP)` heaviest, and `/v1/membership` clamps
/// its `k` to that.
pub const TOP_K_CAP: usize = 16;

impl ModelSnapshot {
    /// Build a snapshot from a checkpoint. `delta` is the
    /// inter-community link probability for Eq. 7 (it is a sampler
    /// hyperparameter, not part of the checkpoint artifact); `backend`
    /// picks the SIMD backend for edge queries.
    ///
    /// The snapshot shares the checkpoint's `pi` plane (a reference
    /// count, no copy) and copies only `beta`; a caller that owns the
    /// checkpoint can move both instead (`Checkpoint::into_planes`, then
    /// [`Self::from_planes`]), as the server does, so the rest of the
    /// checkpoint is freed before the build.
    pub fn from_checkpoint(
        ckpt: &Checkpoint,
        delta: f64,
        backend: Backend,
    ) -> Result<Self, SnapshotError> {
        Self::from_planes(
            ckpt.pi_plane().clone(),
            ckpt.beta().to_vec(),
            delta,
            backend,
        )
    }

    /// Build a snapshot from raw model planes: `pi` flat row-major
    /// `n x k` (with `k = beta.len()` and `n = pi.len() / k`) and the
    /// community strengths `beta`. Both are taken by value and kept:
    /// the snapshot serves from `pi`'s own allocation (a `Vec` is taken
    /// over as a [`Plane`], not copied). Callers with models from
    /// elsewhere (or tests constructing exact tie cases) use it directly.
    ///
    /// Large models are built on [`mmsb_obs::export::host_cores`]
    /// scoped threads, but on no more than the build's radix scratch
    /// allows (four at K >= 16, see `max_ranges`); the planes are
    /// identical at any thread count (see [`Self::from_planes_in`]).
    pub fn from_planes(
        pi: impl Into<Plane<f32>>,
        beta: Vec<f64>,
        delta: f64,
        backend: Backend,
    ) -> Result<Self, SnapshotError> {
        let pi = pi.into();
        let ranges = if pi.len() < INLINE_BELOW {
            1
        } else {
            mmsb_obs::export::host_cores().min(max_ranges(beta.len().min(TOP_K_CAP)))
        };
        Self::from_planes_in(pi, beta, delta, backend, ranges)
    }

    /// [`Self::from_planes`] over an explicit number of ranges. Vertex
    /// rows and communities are each cut into `ranges` contiguous
    /// fixed ranges; range `r` fills its communities' rows of
    /// `members`, then checks its rows of `pi` and fills their rows of
    /// `topk`, the first range on the calling thread and every other on
    /// a scoped thread of its own. Each row and each column is computed from `pi` alone, so the
    /// output does not depend on `ranges`.
    ///
    /// Scoped threads and not `mmsb_pool::ThreadPool`: `POST
    /// /v1/reload` reaches this from inside a pool worker, where a
    /// nested `ThreadPool::run` executes its chunks inline.
    pub(crate) fn from_planes_in(
        pi: impl Into<Plane<f32>>,
        beta: Vec<f64>,
        delta: f64,
        backend: Backend,
        ranges: usize,
    ) -> Result<Self, SnapshotError> {
        let pi = pi.into();
        let k = beta.len();
        if k == 0 || pi.is_empty() || !pi.len().is_multiple_of(k) {
            return Err(SnapshotError::EmptyModel);
        }
        let n = pi.len() / k;
        if beta.iter().any(|b| !b.is_finite()) {
            return Err(SnapshotError::NonFinite { what: "beta" });
        }
        let ranked = k.min(TOP_K_CAP);
        let mut topk = vec![0u32; n * ranked];
        let mut members = vec![0u32; k * n];

        let ranges = ranges.max(1);
        let (rows_per, cols_per) = (n.div_ceil(ranges), k.div_ceil(ranges));
        let mut topk_parts = topk.chunks_mut(rows_per * ranked);
        let mut member_parts = members.chunks_mut(cols_per * n);
        // A range past the last row (or community) gets empty slices.
        let mut jobs = (0..ranges).map(|r| RangeJob {
            first_row: r * rows_per,
            topk: topk_parts.next().unwrap_or_default(),
            first_col: r * cols_per,
            members: member_parts.next().unwrap_or_default(),
        });
        let finite = std::thread::scope(|scope| {
            let mine = jobs.next().expect("ranges >= 1");
            let src = &pi[..];
            let spawned: Vec<_> = jobs
                .map(|job| scope.spawn(move || job.run(src, k)))
                .collect();
            let mut finite = mine.run(src, k);
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
        self.pi[v * self.k + c] as f64
    }

    /// Number of communities ranked per vertex: `min(K, TOP_K_CAP)`, the
    /// length of every [`Self::communities_by_weight`] slice and the
    /// largest `k` a membership query is answered with.
    pub fn ranked(&self) -> usize {
        self.k.min(TOP_K_CAP)
    }

    /// The [`Self::ranked`] heaviest community ids of vertex `v`, by
    /// descending membership weight (ties by ascending community id):
    /// the first `ranked()` entries of the full order. A top-k query is
    /// the first `k` entries.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn communities_by_weight(&self, v: usize) -> &[u32] {
        assert!(v < self.n, "vertex {v} out of range");
        let ranked = self.ranked();
        &self.topk[v * ranked..(v + 1) * ranked]
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
    /// two sums run as one fused [`mmsb_simd::edge_dots_f32`] pass over
    /// the two f32 rows and `beta`.
    ///
    /// # Panics
    /// Panics if `a` or `b` is out of range.
    pub fn edge_likelihood(&self, a: usize, b: usize) -> f64 {
        assert!(a < self.n && b < self.n, "vertex out of range");
        let k = self.k;
        let (same, linked) = mmsb_simd::edge_dots_f32(
            self.backend,
            &self.pi[a * k..(a + 1) * k],
            &self.beta,
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
/// `-0.0 < +0.0` included), then complement. [`ModelSnapshot::weight`]
/// widens the f32 `pi` plane exactly, so this is also the order of the
/// weights it serves.
fn desc_key(w: f32) -> u32 {
    let bits = w.to_bits();
    let negative = ((bits as i32) >> 31) as u32;
    !(bits ^ (negative | 0x8000_0000))
}

/// [`desc_key`] above the id: ascending packed order is "descending
/// weight, ties by ascending id".
fn packed_key(w: f32, id: u32) -> u64 {
    pack(desc_key(w), id)
}

/// The packed key of a [`desc_key`] and an id: the key in the high
/// half, the id in the low half.
fn pack(desc: u32, id: u32) -> u64 {
    (desc as u64) << 32 | id as u64
}

/// Bytes of radix scratch a range holds per vertex while it sorts its
/// communities' member lists: two `n`-element `u64` buffers.
const SCRATCH_PER_VERTEX: usize = 2 * std::mem::size_of::<u64>();

/// The most ranges a build of `ranked` communities per vertex fans out
/// over: each range's scratch is then no larger than its share of
/// `topk` (`4 · ranked` bytes per vertex over the ranges), which it has
/// not written yet, so the scratch adds nothing to the peak. Four
/// ranges at K >= 16; one below K = 8, where at K < 4 the whole `topk`
/// plane is smaller than one range's scratch.
fn max_ranges(ranked: usize) -> usize {
    (ranked * std::mem::size_of::<u32>() / SCRATCH_PER_VERTEX).max(1)
}

/// One range's share of the two order planes (see
/// [`ModelSnapshot::from_planes_in`]).
struct RangeJob<'a> {
    first_row: usize,
    topk: &'a mut [u32],
    first_col: usize,
    members: &'a mut [u32],
}

impl RangeJob<'_> {
    /// Fill this range's planes from the `n x k` plane `src`; false iff
    /// one of its rows holds a non-finite weight.
    fn run(self, src: &[f32], k: usize) -> bool {
        let n = src.len() / k;
        #[cfg(test)]
        tests::note_range_thread(n);

        // Communities first: their scratch (16n bytes) is freed again
        // before this range touches its share of `topk`, which
        // `from_planes` keeps at least as large (see `max_ranges`), so
        // the scratch adds nothing to the peak. Stage each tile's keys
        // in its own rows of `members`, then radix-sort them there.
        if !self.members.is_empty() {
            let (mut a, mut b) = (vec![0u64; n], vec![0u64; n]);
            for (t, tile) in self.members.chunks_mut(TILE * n).enumerate() {
                stage_keys(src, k, self.first_col + t * TILE, tile);
                for out in tile.chunks_exact_mut(n) {
                    sort_column(out, &mut a, &mut b);
                }
            }
        }

        // Rows: check finiteness, pack the K keys, select the `ranked`
        // smallest and sort those.
        let ranked = k.min(TOP_K_CAP);
        let mut finite = true;
        let mut keys = vec![0u64; k];
        let rows = src.chunks_exact(k).skip(self.first_row);
        for (row, order) in rows.zip(self.topk.chunks_exact_mut(ranked)) {
            for (c, &p) in row.iter().enumerate() {
                finite &= p.is_finite();
                keys[c] = packed_key(p, c as u32);
            }
            keys.select_nth_unstable(ranked - 1);
            keys[..ranked].sort_unstable();
            for (slot, &key) in order.iter_mut().zip(&keys) {
                *slot = key as u32;
            }
        }
        finite
    }
}

/// Communities per row tile: 16 f32 weights are one 64-byte line, so a
/// tile reads each line of its rows once.
const TILE: usize = 16;

/// Write [`desc_key`] of communities `first..` of every row of `src`
/// to `tile`, whose `n`-long rows are those communities' rows of
/// `members`: one sequential pass over `pi`, reading a tile's adjacent
/// weights together instead of one strided pass per community.
fn stage_keys(src: &[f32], k: usize, first: usize, tile: &mut [u32]) {
    let n = src.len() / k;
    let cols = tile.len() / n;
    for (v, row) in src.chunks_exact(k).enumerate() {
        for (j, &w) in row[first..first + cols].iter().enumerate() {
            tile[j * n + v] = desc_key(w);
        }
    }
}

/// Low, middle and high radix digit of a packed key's weight half:
/// 11 + 11 + 10 bits.
const DIGITS: [(u32, usize); 3] = [(32, 0x7ff), (43, 0x7ff), (54, 0x3ff)];

/// Replace the [`desc_key`]s of vertices `0..n` staged in `out` with
/// the vertex ids by descending weight, ties by ascending id. A stable
/// least-significant-digit radix sort over the 32 key bits: ids enter
/// ascending and every pass keeps equal digits in arrival order, so
/// stability is the tie-break and the id half of a key is carried,
/// never compared. `a` and `b` are `n`-element scratch.
fn sort_column(out: &mut [u32], a: &mut [u64], b: &mut [u64]) {
    // Pack the staged keys once, counting all three digits on the way.
    let mut counts = [[0u32; 0x800]; 3];
    for (id, (slot, &key)) in a.iter_mut().zip(out.iter()).enumerate() {
        let key = pack(key, id as u32);
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
            ParallelSampler::with_threads(graph, heldout, SamplerConfig::new(k).with_seed(seed), 1)
                .unwrap();
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
                let (w0, w1) = (snap.weight(v, w[0] as usize), snap.weight(v, w[1] as usize));
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
                let (w0, w1) = (snap.weight(w[0] as usize, c), snap.weight(w[1] as usize, c));
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
        for b in [Backend::Avx2, Backend::Neon] {
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

    /// The planes `from_planes` built before the packed-key pipeline and
    /// before the snapshot held `pi` once in f32: `pi` widened to f64, a
    /// second plane `pib = pi * beta`, and the two order planes.
    struct ReferencePlanes {
        n: usize,
        k: usize,
        pi: Vec<f64>,
        pib: Vec<f64>,
        topk: Vec<u32>,
        members: Vec<u32>,
    }

    /// The widened planes, then one indirect-comparator sort per vertex
    /// and per community, on the calling thread. Takes a finite model.
    fn from_planes_reference(src: &[f32], beta: &[f64]) -> ReferencePlanes {
        let k = beta.len();
        let n = src.len() / k;
        assert!(n > 0 && n * k == src.len(), "not an n x k plane");
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
        ReferencePlanes {
            n,
            k,
            pi,
            pib,
            topk,
            members,
        }
    }

    /// The snapshot serves what the reference planes hold, bit for bit
    /// (`-0.0` and `+0.0` differ): the `min(k, TOP_K_CAP)` prefix of
    /// every reference row order, the member order, every weight, and
    /// Eq. 7 for `pairs` pairs drawn from `seed` equal to
    /// [`mmsb_simd::edge_dots`] over the reference's f64 `pi`/`pib`.
    fn assert_same_planes(
        got: &ModelSnapshot,
        want: &ReferencePlanes,
        pairs: usize,
        seed: u64,
        case: &str,
    ) {
        let (n, k) = (want.n, want.k);
        assert_eq!((got.n, got.k), (n, k), "{case}: shape");
        let ranked = k.min(TOP_K_CAP);
        let prefixes: Vec<u32> = want
            .topk
            .chunks_exact(k)
            .flat_map(|order| &order[..ranked])
            .copied()
            .collect();
        assert!(got.topk == prefixes, "{case}: topk plane differs");
        assert!(got.members == want.members, "{case}: members plane differs");
        for v in 0..n {
            for c in 0..k {
                assert_eq!(
                    got.weight(v, c).to_bits(),
                    want.pi[v * k + c].to_bits(),
                    "{case}: weight({v}, {c})"
                );
            }
        }
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        for _ in 0..pairs {
            let (a, b) = (rng.below_usize(n), rng.below_usize(n));
            let (same, linked) = mmsb_simd::edge_dots(
                got.backend,
                &want.pi[a * k..(a + 1) * k],
                &want.pib[a * k..(a + 1) * k],
                &want.pi[b * k..(b + 1) * k],
            );
            let p = linked + (1.0 - same.min(1.0)) * got.delta;
            assert_eq!(
                got.edge_likelihood(a, b).to_bits(),
                p.to_bits(),
                "{case}: edge_likelihood({a}, {b})"
            );
        }
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
        let threads = mmsb_obs::export::host_cores();
        let backends: Vec<Backend> = [Backend::Scalar, Backend::Avx2, Backend::Neon]
            .into_iter()
            .filter(|b| b.available())
            .collect();
        let mut cases = 0;
        for k in [1usize, 3, 8, 15, 16, 17, 33, 63, 64, 65] {
            for n in [1usize, 2, (threads - 1).max(1), threads + 1, 4_099] {
                for seed in 0..3u64 {
                    let (pi, beta) = plane(n, k, seed * 7_919 + (n * 131 + k) as u64);
                    let want = from_planes_reference(&pi, &beta);
                    for ranges in [1usize, 2, 3, 8] {
                        let backend = backends[cases % backends.len()];
                        let got = ModelSnapshot::from_planes_in(
                            pi.clone(),
                            beta.clone(),
                            1e-5,
                            backend,
                            ranges,
                        )
                        .unwrap();
                        let case = format!("n={n} k={k} seed={seed} ranges={ranges} {backend}");
                        assert_same_planes(&got, &want, 50, cases as u64, &case);
                        cases += 1;
                    }
                }
            }
        }
        assert!(cases >= 300, "{cases} cases");
    }

    /// Heap bytes a snapshot holds: exhaustive, so a new field must be
    /// added to the count.
    fn heap_bytes(snap: &ModelSnapshot) -> usize {
        let ModelSnapshot {
            n: _,
            k: _,
            delta: _,
            backend: _,
            pi,
            beta,
            topk,
            members,
        } = snap;
        pi.capacity() * 4 + topk.capacity() * 4 + members.capacity() * 4 + beta.capacity() * 8
    }

    /// The snapshot serves from the checkpoint's own `pi` allocation and
    /// holds nothing beyond `pi` and `members` (f32, u32: `n·k` each),
    /// `topk` (u32, `n·min(k, 16)`) and `beta` (f64):
    /// `8·n·k + 4·n·min(k, 16) + 8·k` bytes of heap.
    #[test]
    fn the_model_is_held_once_in_the_checkpoints_allocation() {
        // Decoded, as the server loads it: a captured checkpoint shares
        // the sampler's line-aligned plane, slack included.
        let ckpt = Checkpoint::from_bytes(&trained_checkpoint(5, 17).to_bytes()).unwrap();
        let (n, k) = (ckpt.n() as usize, ckpt.k());
        let held = ckpt.pi().as_ptr();
        let shared = ModelSnapshot::from_checkpoint(&ckpt, 1e-5, Backend::detect()).unwrap();
        assert_eq!(
            shared.pi.as_ptr(),
            held,
            "from_checkpoint shares, not copies"
        );
        drop(shared);
        let (pi, beta) = ckpt.into_planes();
        assert_eq!(pi.as_ptr(), held, "into_planes moves, not copies");
        let snap = ModelSnapshot::from_planes(pi, beta, 1e-5, Backend::detect()).unwrap();
        assert_eq!(
            snap.pi.as_ptr(),
            held,
            "the build keeps the plane it was given"
        );
        let footprint = |n: usize, k: usize| 8 * n * k + 4 * n * k.min(TOP_K_CAP) + 8 * k;
        assert_eq!(heap_bytes(&snap), footprint(n, k), "n={n} k={k}");
        // Above the cap only `topk` stops growing with k.
        for (n, k) in [(300usize, 16usize), (300, 17), (200, 64)] {
            let (pi, beta) = plane(n, k, 41);
            let snap = ModelSnapshot::from_planes(pi, beta, 1e-5, Backend::Scalar).unwrap();
            assert_eq!(heap_bytes(&snap), footprint(n, k), "n={n} k={k}");
        }
    }

    /// At the cap's range count every range's scratch fits in its
    /// share of `topk`, and one more range would not (K >= 4).
    #[test]
    fn the_build_scratch_fits_in_each_ranges_share_of_topk() {
        assert_eq!(max_ranges(TOP_K_CAP), 4);
        for k in 4..=70usize {
            let ranked = k.min(TOP_K_CAP);
            let ranges = max_ranges(ranked);
            let share = |ranges: usize| 4 * ranked / ranges;
            assert!(SCRATCH_PER_VERTEX <= share(ranges), "k={k}");
            assert!(SCRATCH_PER_VERTEX > share(ranges + 1), "k={k}");
        }
        assert_eq!(max_ranges(1), 1);
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
                    let err = ModelSnapshot::from_planes_in(
                        pi.clone(),
                        beta.clone(),
                        1e-5,
                        Backend::Scalar,
                        ranges,
                    )
                    .unwrap_err();
                    assert_eq!(err, SnapshotError::NonFinite { what: "pi" }, "at {at}");
                    // A bad beta is reported first, as before.
                    let mut beta = beta.clone();
                    beta[k - 1] = f64::NAN;
                    let err =
                        ModelSnapshot::from_planes_in(pi, beta, 1e-5, Backend::Scalar, ranges)
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
        let threads = mmsb_obs::export::host_cores();
        // Shapes no other test in this crate builds.
        let (big_n, small_n, k) = (4_111usize, 37usize, 16usize);
        assert!(big_n * k >= INLINE_BELOW && small_n * k < INLINE_BELOW);
        let (big, beta) = plane(big_n, k, 5);
        let (small, _) = plane(small_n, k, 6);

        let built = Mutex::new(None);
        let pool = ThreadPool::new(2);
        pool.run(2, |_worker, chunk| {
            if chunk == 0 {
                let snap =
                    ModelSnapshot::from_planes(big.clone(), beta.clone(), 1e-5, Backend::Scalar)
                        .unwrap();
                ModelSnapshot::from_planes(small.clone(), beta.clone(), 1e-5, Backend::Scalar)
                    .unwrap();
                *built.lock().unwrap() = Some((snap, std::thread::current().id()));
            }
        });
        let (snap, caller) = built.into_inner().unwrap().expect("chunk 0 ran");
        let want = from_planes_reference(&big, &beta);
        assert_same_planes(&snap, &want, 50, 1, "built inside a pool chunk");

        let ranges = threads.min(max_ranges(k));
        let ran_on = range_threads(big_n);
        assert_eq!(
            ran_on.len(),
            ranges,
            "one range per available core, up to the cap"
        );
        assert_eq!(ran_on.iter().collect::<HashSet<_>>().len(), ranges);
        assert!(ran_on.contains(&caller), "the caller runs a range itself");
        assert_eq!(range_threads(small_n), [caller], "small models run inline");
    }
}
