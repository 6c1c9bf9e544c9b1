//! A from-scratch fork-join thread pool with deterministic chunked
//! scheduling.
//!
//! The samplers must produce the same chain bit-for-bit regardless of how
//! many threads execute an iteration. This pool makes that easy to
//! guarantee: work is always expressed as a fixed number of *chunks* with
//! fixed boundaries, each chunk writes only to a region determined by its
//! chunk index (never by which worker ran it), and any cross-chunk
//! combining is done by the caller in chunk order (see
//! [`tree_combine_f64`]). Which worker claims which chunk is dynamic —
//! results are not.
//!
//! Design points, in service of a zero-allocation steady state:
//!
//! * Workers are persistent OS threads, spawned once in [`ThreadPool::new`]
//!   and joined on drop. (A `std::thread::scope` per call would spawn —
//!   and hence allocate — on every fork.)
//! * A job is published as a `(data pointer, trampoline fn, chunk count)`
//!   triple under a `Mutex`; claiming a chunk is one `fetch_add`. No
//!   closures are boxed and nothing is heap-allocated per call.
//! * The calling thread participates as worker 0, so a pool of `n`
//!   threads spawns only `n - 1` OS threads and `ThreadPool::new(1)` is a
//!   pure inline executor. A one-chunk job runs inline too: there is
//!   nothing to share, and waking a helper would only make the caller
//!   wait for it.
//! * Panics in any chunk are caught, the remaining chunks are drained, and
//!   the first payload is re-thrown on the calling thread. The pool stays
//!   usable afterwards.
//! * A nested `run` from inside a chunk executes inline on the current
//!   worker, so library code may use the pool without knowing whether it
//!   is already running on it.
//!
//! Every synchronization operation goes through the [`sync::SyncBackend`]
//! layer: production code runs on [`sync::RealSync`] (plain `std::sync`,
//! zero cost), and `mmsb-check` instantiates the *same* protocol code on
//! its model backend to exhaustively explore thread interleavings. The
//! concrete [`ThreadPool`] type is an alias of the generic
//! [`ThreadPoolIn`] on the real backend.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod sync;
mod worker;

pub use sync::{RealSync, SyncBackend};

use crate::sync::real::{Arc, Ordering};
use crate::worker::{claim_chunks, current_worker, enter_worker, worker_loop, Job, Shared, State};
use mmsb_obs::id as obs_id;
use std::panic::resume_unwind;

/// Fork-join pool over persistent worker threads, generic over the
/// [`SyncBackend`] its protocol runs on. Production code uses the
/// [`ThreadPool`] alias; `mmsb-check` instantiates the model backend.
pub struct ThreadPoolIn<S: SyncBackend> {
    shared: Arc<Shared<S>>,
    threads: usize,
    handles: Vec<S::JoinHandle>,
}

/// Fork-join pool on the production (`std::sync`) backend.
pub type ThreadPool = ThreadPoolIn<RealSync>;

impl<S: SyncBackend> ThreadPoolIn<S> {
    /// Create a pool that executes jobs on `threads` threads in total:
    /// the calling thread plus `threads - 1` spawned workers.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "pool needs at least one thread");
        let shared = Arc::new(Shared {
            state: S::mutex(State {
                job: None,
                epoch: 0,
                shutdown: false,
                panic: None,
            }),
            work_cv: S::condvar(),
            done_cv: S::condvar(),
            next_chunk: S::atomic_usize(0),
            active: S::atomic_usize(0),
        });
        let handles = (1..threads)
            .map(|id| {
                let shared = Arc::clone(&shared);
                S::spawn(&format!("mmsb-pool-{id}"), move || worker_loop(&shared, id))
            })
            .collect();
        mmsb_obs::gauge_set(obs_id::G_WORKERS, threads as u64);
        Self {
            shared,
            threads,
            handles,
        }
    }

    /// Total number of threads (including the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute `f(worker, chunk)` for every `chunk in 0..n_chunks`.
    ///
    /// Chunks are claimed dynamically but their identity — and therefore
    /// anything derived from the chunk index, such as an output location —
    /// is fixed up front. `worker` is in `0..self.threads()` and no two
    /// threads run under the same worker id concurrently, so `worker` may
    /// safely index per-thread scratch state (see [`ThreadPoolIn::run_with`]).
    ///
    /// Blocks until every chunk has finished. If any chunk panics, the
    /// remaining chunks are skipped and the first payload is re-thrown
    /// here once all workers have drained; the pool remains usable.
    ///
    /// Nested calls (from inside a chunk) run inline under the current
    /// worker id.
    pub fn run<F>(&self, n_chunks: usize, f: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        if n_chunks == 0 {
            return;
        }
        if let Some(worker) = current_worker() {
            // Nested use: we are already inside a job on this pool (or
            // another); fan-out here would deadlock on our own slot, so
            // run inline under the id we already hold.
            for chunk in 0..n_chunks {
                f(worker, chunk);
            }
            return;
        }
        mmsb_obs::counter_add(obs_id::C_POOL_JOBS, 1);
        let _job_span = mmsb_obs::span(obs_id::S_POOL_JOB);
        // One chunk has nothing to share: waking the helpers would only
        // make the caller wait for them to see that.
        if self.threads == 1 || n_chunks == 1 {
            let _guard = enter_worker(0);
            mmsb_obs::counter_add(obs_id::C_POOL_CHUNKS, n_chunks as u64);
            for chunk in 0..n_chunks {
                f(0, chunk);
            }
            return;
        }

        // SAFETY: contract of `trampoline` — `data` must point at a live
        // `F` that stays valid for the whole job.
        unsafe fn trampoline<F: Fn(usize, usize) + Sync>(
            data: *const (),
            worker: usize,
            chunk: usize,
        ) {
            // SAFETY: `data` was erased from `&raw const f` in `run` and
            // the closure outlives the job (the caller blocks until every
            // worker drained); `F: Sync` permits the shared call.
            unsafe { (*data.cast::<F>())(worker, chunk) }
        }
        let job = Job {
            data: (&raw const f).cast(),
            call: trampoline::<F>,
            n_chunks,
        };

        {
            let mut st = S::lock(&self.shared.state);
            debug_assert!(st.job.is_none(), "pool job published while one is active");
            S::store(&self.shared.next_chunk, 0, Ordering::Relaxed);
            S::store(&self.shared.active, self.threads - 1, Ordering::Release);
            st.job = Some(job);
            st.epoch += 1;
            st.panic = None;
        }
        S::notify_all(&self.shared.work_cv);

        // Participate as worker 0.
        let caller_panic = {
            let _guard = enter_worker(0);
            claim_chunks(&self.shared, job, 0)
        };

        // Wait for the helpers; the last one out clears the job.
        let mut st = S::lock(&self.shared.state);
        while st.job.is_some() {
            st = S::wait(&self.shared.done_cv, st);
        }
        let helper_panic = st.panic.take();
        drop(st);

        if let Some(payload) = caller_panic.or(helper_panic) {
            resume_unwind(payload);
        }
    }

    /// Like [`ThreadPoolIn::run`], but hands each worker exclusive `&mut`
    /// access to its own context from `ctxs` — the per-thread scratch API
    /// used for reusable workspaces.
    ///
    /// # Panics
    /// Panics if `ctxs.len() < self.threads()`, or when called from inside
    /// a pool job (nesting would alias the current worker's context).
    pub fn run_with<C, F>(&self, ctxs: &mut [C], n_chunks: usize, f: F)
    where
        C: Send,
        F: Fn(&mut C, usize) + Sync,
    {
        assert!(
            ctxs.len() >= self.threads,
            "need one context per pool thread: {} < {}",
            ctxs.len(),
            self.threads
        );
        assert!(
            current_worker().is_none(),
            "run_with may not be nested inside a pool job"
        );
        let ctxs = SharedSlice::new(ctxs);
        self.run(n_chunks, |worker, chunk| {
            // SAFETY: no two threads run under the same worker id at the
            // same time, so `ctxs[worker]` is exclusive to this thread.
            let ctx = unsafe { &mut ctxs.range(worker, worker + 1)[0] };
            f(ctx, chunk);
        });
    }
}

impl<S: SyncBackend> Drop for ThreadPoolIn<S> {
    fn drop(&mut self) {
        S::lock(&self.shared.state).shutdown = true;
        S::notify_all(&self.shared.work_cv);
        for handle in self.handles.drain(..) {
            S::join(handle);
        }
    }
}

impl<S: SyncBackend> std::fmt::Debug for ThreadPoolIn<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish()
    }
}

/// A `Send + Sync` view of a mutable slice for handing pool chunks their
/// disjoint output regions.
///
/// The pool guarantees *which worker* runs a chunk is irrelevant; this
/// type is how callers express "chunk `c` owns exactly `out[lo..hi]`".
pub struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: SharedSlice hands out disjoint subranges of a `&mut [T]`; with
// `T: Send` those ranges may be written from other threads. The caller
// contract of `range` (pairwise-disjoint ranges) is what makes the shared
// `&self` access sound.
unsafe impl<T: Send> Send for SharedSlice<'_, T> {}
// SAFETY: as above — concurrent `range` calls are required to target
// disjoint regions, so `&SharedSlice` may cross threads.
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Wrap a mutable slice.
    pub fn new(slice: &'a mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reborrow `[lo, hi)` mutably.
    ///
    /// # Safety
    /// Ranges handed to concurrently-running chunks must be pairwise
    /// disjoint, and the underlying slice must not be accessed through any
    /// other path while the returned borrows live.
    ///
    /// # Panics
    /// Panics if `lo > hi` or `hi > self.len()`.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn range(&self, lo: usize, hi: usize) -> &mut [T] {
        assert!(
            lo <= hi && hi <= self.len,
            "range {lo}..{hi} out of {}",
            self.len
        );
        // SAFETY: bounds checked above; disjointness from other live
        // borrows is the caller's contract (see `# Safety`).
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo) }
    }
}

/// Combine `rows` gradient rows of `width` elements (stored contiguously
/// in `buf`) into row 0 by a fixed binary tree: pass `g` adds row `i + g`
/// into row `i` for `i ∈ {0, 2g, 4g, …}`, with `g = 1, 2, 4, …`.
///
/// The association depends only on `rows`, never on thread count or
/// completion order, so the reduced gradient is bitwise-reproducible.
/// With a single row this is the identity.
///
/// # Panics
/// Panics if `buf` is shorter than `rows * width`.
pub fn tree_combine_f64(buf: &mut [f64], width: usize, rows: usize) {
    assert!(
        buf.len() >= rows * width,
        "buffer shorter than rows * width"
    );
    let mut gap = 1;
    while gap < rows {
        let mut i = 0;
        while i + gap < rows {
            let (head, tail) = buf.split_at_mut((i + gap) * width);
            let dst = &mut head[i * width..i * width + width];
            let src = &tail[..width];
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
            i += 2 * gap;
        }
        gap *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::real::{AtomicU64, AtomicUsize, Ordering};
    use std::panic::AssertUnwindSafe;

    /// Deterministically "compute" a value for a chunk.
    fn chunk_value(chunk: usize) -> u64 {
        (chunk as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    fn run_into_buffer(pool: &ThreadPool, n_chunks: usize) -> Vec<u64> {
        let mut out = vec![0u64; n_chunks];
        let shared = SharedSlice::new(&mut out);
        pool.run(n_chunks, |_worker, chunk| {
            // SAFETY: each chunk touches only its own index.
            let slot = unsafe { &mut shared.range(chunk, chunk + 1)[0] };
            *slot = chunk_value(chunk);
        });
        out
    }

    #[test]
    fn one_thread_equals_n_threads() {
        let reference = run_into_buffer(&ThreadPool::new(1), 257);
        for threads in [2, 3, 7] {
            let pool = ThreadPool::new(threads);
            for _ in 0..5 {
                assert_eq!(run_into_buffer(&pool, 257), reference, "threads={threads}");
            }
        }
    }

    #[test]
    fn all_chunks_run_exactly_once() {
        let pool = ThreadPool::new(4);
        let counts: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        pool.run(100, |_w, c| {
            counts[c].fetch_add(1, Ordering::Relaxed);
        });
        for (c, count) in counts.iter().enumerate() {
            assert_eq!(count.load(Ordering::Relaxed), 1, "chunk {c}");
        }
    }

    #[test]
    fn one_chunk_runs_on_the_caller() {
        let pool = ThreadPool::new(3);
        let caller = std::thread::current().id();
        pool.run(1, |w, c| {
            assert_eq!((w, c), (0, 0));
            assert_eq!(std::thread::current().id(), caller);
        });
    }

    #[test]
    fn zero_chunks_is_a_no_op() {
        let pool = ThreadPool::new(3);
        pool.run(0, |_w, _c| panic!("must not run"));
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(4);
        for round in 0..3 {
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(64, |_w, c| {
                    if c == 13 {
                        panic!("boom {round}");
                    }
                });
            }))
            .expect_err("panic must propagate to the caller");
            let msg = err.downcast_ref::<String>().expect("string payload");
            assert_eq!(msg, &format!("boom {round}"));
            // Pool still works after the panic.
            let sum = AtomicU64::new(0);
            pool.run(32, |_w, c| {
                sum.fetch_add(c as u64, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 31 * 32 / 2);
        }
    }

    #[test]
    fn caller_panic_propagates_from_single_thread_pool() {
        let pool = ThreadPool::new(1);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, |_w, c| {
                if c == 2 {
                    panic!("inline boom");
                }
            });
        }))
        .expect_err("panic must propagate");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"inline boom"));
        // TLS worker id must have been restored.
        let sum = AtomicU64::new(0);
        pool.run(4, |w, c| {
            assert_eq!(w, 0);
            sum.fetch_add(c as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn nested_run_executes_inline() {
        let pool = ThreadPool::new(4);
        let total = AtomicU64::new(0);
        pool.run(8, |outer_worker, _c| {
            // A nested fork from inside a chunk must not deadlock and must
            // stay on the same worker.
            pool.run(5, |inner_worker, inner_chunk| {
                assert_eq!(inner_worker, outer_worker);
                total.fetch_add(inner_chunk as u64 + 1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * (1 + 2 + 3 + 4 + 5));
    }

    #[test]
    fn run_with_gives_each_worker_its_own_context() {
        let pool = ThreadPool::new(4);
        let mut counters = vec![0u64; pool.threads()];
        pool.run_with(&mut counters, 1000, |ctx, _chunk| {
            *ctx += 1;
        });
        assert_eq!(counters.iter().sum::<u64>(), 1000);
    }

    #[test]
    #[should_panic(expected = "one context per pool thread")]
    fn run_with_rejects_short_context_slice() {
        let pool = ThreadPool::new(2);
        let mut ctxs = vec![0u8; 1];
        pool.run_with(&mut ctxs, 4, |_ctx, _c| {});
    }

    #[test]
    fn worker_ids_stay_in_range_and_exclusive() {
        let pool = ThreadPool::new(4);
        let in_use: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.run(400, |worker, _chunk| {
            assert!(worker < 4);
            let was = in_use[worker].fetch_add(1, Ordering::SeqCst);
            assert_eq!(was, 0, "worker id {worker} used by two threads at once");
            std::thread::yield_now();
            in_use[worker].fetch_sub(1, Ordering::SeqCst);
        });
    }

    #[test]
    fn tree_combine_single_row_is_identity() {
        let mut buf = vec![1.5, -2.5, 3.25];
        let orig = buf.clone();
        tree_combine_f64(&mut buf, 3, 1);
        assert_eq!(buf, orig);
    }

    #[test]
    fn tree_combine_matches_manual_tree() {
        // 5 rows of width 2: tree is ((0+1)+(2+3))+4.
        let rows: Vec<[f64; 2]> = (0..5)
            .map(|i| [i as f64 + 0.25, -(i as f64) * 0.5])
            .collect();
        let mut buf: Vec<f64> = rows.iter().flatten().copied().collect();
        tree_combine_f64(&mut buf, 2, 5);
        let expect = |c: usize| {
            let r = |i: usize| rows[i][c];
            ((r(0) + r(1)) + (r(2) + r(3))) + r(4)
        };
        assert_eq!(buf[0], expect(0));
        assert_eq!(buf[1], expect(1));
    }

    #[test]
    fn tree_combine_is_independent_of_width_layout() {
        // Same reduction applied to each column independently.
        let rows = 9;
        let width = 4;
        let mut buf: Vec<f64> = (0..rows * width).map(|i| (i as f64).sin()).collect();
        let columns: Vec<Vec<f64>> = (0..width)
            .map(|c| (0..rows).map(|r| buf[r * width + c]).collect())
            .collect();
        tree_combine_f64(&mut buf, width, rows);
        for (c, col) in columns.iter().enumerate() {
            let mut single: Vec<f64> = col.clone();
            tree_combine_f64(&mut single, 1, rows);
            assert_eq!(buf[c], single[0], "column {c}");
        }
    }
}
