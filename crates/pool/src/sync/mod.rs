//! The synchronization abstraction layer.
//!
//! Every blocking or atomic operation the pool's protocols perform —
//! mutex lock/unlock, condvar wait/notify, atomic read-modify-write,
//! thread spawn/join — goes through the [`SyncBackend`] trait instead of
//! touching `std::sync` directly. Two backends exist:
//!
//! * [`RealSync`] (this crate, [`real`]) — thin `#[inline]` forwarders to
//!   the `std` types. Zero cost: the generic protocols monomorphize to
//!   exactly the code they replaced, and the zero-allocation steady state
//!   is still pinned by `crates/core/tests/zero_alloc.rs`.
//! * `ModelSync` (`crates/check`) — every operation becomes a scheduling
//!   point of a deterministic model checker that explores bounded
//!   -exhaustive thread interleavings (DFS with a preemption bound) and
//!   checks for data races, deadlocks, lost wakeups, and protocol
//!   violations. See `mmsb-check`'s crate docs for how to read a
//!   counterexample trace.
//!
//! Why a trait and not `#[cfg]` swapping (loom's approach): the model
//! backend must coexist with the real one in a single workspace build —
//! `cargo test` runs the production samplers (real backend) and the model
//! suite (model backend) in one invocation, and cargo feature unification
//! would otherwise leak the model types into the production pool. With a
//! generic parameter the *same protocol source* is compiled against both
//! backends, so what the checker verifies is what ships.
//!
//! The workspace lint (`cargo run -p mmsb-check --bin xlint`) enforces
//! that `std::sync` is referenced only inside this module within the
//! `pool` and `dkv` crates, so no protocol code can bypass the layer.

pub mod real;

pub use real::RealSync;

use std::ops::DerefMut;
use std::sync::atomic::Ordering;

/// The set of synchronization primitives a pool protocol may use.
///
/// Semantics mirror `std::sync` exactly (the real backend *is*
/// `std::sync`), with two deliberate simplifications:
///
/// * Lock poisoning is not part of the contract. The protocols never
///   panic while holding a lock, and the model backend has no poisoning.
/// * Memory orderings are accepted and forwarded to the real backend;
///   the model backend explores sequentially-consistent executions only
///   (see `mmsb-check` docs for why that is the sound direction for
///   *detecting* bugs, though it cannot catch relaxed-ordering-specific
///   ones).
// The `T: 'a` where-clauses duplicate bounds already on the generic
// parameters; E0195 requires the split so trait and impl early-bind the
// guard lifetime identically.
#[allow(clippy::multiple_bound_locations)]
pub trait SyncBackend: Sized + 'static {
    /// Mutual-exclusion lock around `T`.
    type Mutex<T: Send + 'static>: Send + Sync + 'static;
    /// RAII guard of a locked [`SyncBackend::Mutex`]; unlocks on drop.
    type Guard<'a, T: Send + 'static>: DerefMut<Target = T>
    where
        T: 'a;
    /// Condition variable, used with a [`SyncBackend::Mutex`] guard.
    type Condvar: Send + Sync + 'static;
    /// Atomic `usize` cell.
    type AtomicUsize: Send + Sync + 'static;
    /// Handle to a spawned thread.
    type JoinHandle: Send + 'static;

    /// Create a mutex holding `value`.
    fn mutex<T: Send + 'static>(value: T) -> Self::Mutex<T>;
    /// Block until the mutex is acquired.
    fn lock<'a, T: Send + 'static>(mutex: &'a Self::Mutex<T>) -> Self::Guard<'a, T>
    where
        T: 'a;
    /// Create a condition variable.
    fn condvar() -> Self::Condvar;
    /// Atomically release `guard` and wait for a notification, then
    /// reacquire. Like `std`, spurious wakeups are permitted: callers
    /// must wait in a predicate loop.
    fn wait<'a, T: Send + 'static>(
        cv: &Self::Condvar,
        guard: Self::Guard<'a, T>,
    ) -> Self::Guard<'a, T>
    where
        T: 'a;
    /// Wake all waiters.
    fn notify_all(cv: &Self::Condvar);
    /// Create an atomic cell holding `value`.
    fn atomic_usize(value: usize) -> Self::AtomicUsize;
    /// Atomic load.
    fn load(atomic: &Self::AtomicUsize, order: Ordering) -> usize;
    /// Atomic store.
    fn store(atomic: &Self::AtomicUsize, value: usize, order: Ordering);
    /// Atomic fetch-add, returning the previous value.
    fn fetch_add(atomic: &Self::AtomicUsize, value: usize, order: Ordering) -> usize;
    /// Atomic fetch-sub, returning the previous value.
    fn fetch_sub(atomic: &Self::AtomicUsize, value: usize, order: Ordering) -> usize;
    /// Spawn a named thread running `f`.
    fn spawn<F: FnOnce() + Send + 'static>(name: &str, f: F) -> Self::JoinHandle;
    /// Wait for the thread to finish. Panics on the joined thread are
    /// swallowed (the pool protocols capture payloads themselves).
    fn join(handle: Self::JoinHandle);
}
