//! The production backend: `std::sync`, forwarded verbatim.
//!
//! Every method is an `#[inline]` one-liner, so protocols generic over
//! [`SyncBackend`] monomorphize to exactly the code they would contain
//! had they used `std::sync` directly. This module is also the single
//! allowed `std::sync` import point of the `pool` and `dkv` crates
//! (enforced by `xlint`); non-generic code imports the re-exports below.

use super::SyncBackend;

pub use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
pub use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Zero-cost [`SyncBackend`] over the `std::sync` primitives.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealSync;

// The `T: 'a` where-clauses duplicate bounds already on the generic
// parameters; E0195 requires the split so trait and impl early-bind the
// guard lifetime identically.
#[allow(clippy::multiple_bound_locations)]
impl SyncBackend for RealSync {
    type Mutex<T: Send + 'static> = Mutex<T>;
    type Guard<'a, T: Send + 'static>
        = MutexGuard<'a, T>
    where
        T: 'a;
    type Condvar = Condvar;
    type AtomicUsize = AtomicUsize;
    type JoinHandle = std::thread::JoinHandle<()>;

    #[inline]
    fn mutex<T: Send + 'static>(value: T) -> Mutex<T> {
        Mutex::new(value)
    }

    #[inline]
    fn lock<'a, T: Send + 'static>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T>
    where
        T: 'a,
    {
        mutex.lock().unwrap()
    }

    #[inline]
    fn condvar() -> Condvar {
        Condvar::new()
    }

    #[inline]
    fn wait<'a, T: Send + 'static>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T>
    where
        T: 'a,
    {
        cv.wait(guard).unwrap()
    }

    #[inline]
    fn notify_all(cv: &Condvar) {
        cv.notify_all();
    }

    #[inline]
    fn atomic_usize(value: usize) -> AtomicUsize {
        AtomicUsize::new(value)
    }

    #[inline]
    fn load(atomic: &AtomicUsize, order: Ordering) -> usize {
        atomic.load(order)
    }

    #[inline]
    fn store(atomic: &AtomicUsize, value: usize, order: Ordering) {
        atomic.store(value, order);
    }

    #[inline]
    fn fetch_add(atomic: &AtomicUsize, value: usize, order: Ordering) -> usize {
        atomic.fetch_add(value, order)
    }

    #[inline]
    fn fetch_sub(atomic: &AtomicUsize, value: usize, order: Ordering) -> usize {
        atomic.fetch_sub(value, order)
    }

    #[inline]
    fn spawn<F: FnOnce() + Send + 'static>(name: &str, f: F) -> std::thread::JoinHandle<()> {
        std::thread::Builder::new()
            .name(name.to_string())
            .spawn(f)
            .expect("failed to spawn thread")
    }

    #[inline]
    fn join(handle: std::thread::JoinHandle<()>) {
        let _ = handle.join();
    }
}
