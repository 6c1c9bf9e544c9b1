//! `ModelSync`: the model-checking implementation of
//! [`mmsb_pool::sync::SyncBackend`], plus the tracked-memory primitive
//! [`RaceCell`] that model code uses to make the checker's race
//! detection bite on plain memory.
//!
//! All objects may only be created and used inside an
//! [`explore`](super::explore) body; they look up the current execution
//! through a thread-local and panic otherwise.
//!
//! The `unsafe` in this module is confined to `UnsafeCell` accesses.
//! The soundness argument is uniform: the scheduler runs exactly one
//! model thread at a time, and each access happens after the
//! corresponding scheduler operation has granted this thread the right
//! to run, so no two threads ever touch a cell concurrently — even in
//! executions where the *logical* clocks prove a data race (the checker
//! reports it and freezes the execution before the second conflicting
//! access is performed).

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use mmsb_pool::sync::SyncBackend;

use super::sched::{current, Execution};

/// Model backend: every operation is a scheduling point of the
/// deterministic explorer.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelSync;

/// Model mutex. The value lives here; the lock state lives in the
/// scheduler.
pub struct Mutex<T> {
    exec: Arc<Execution>,
    id: usize,
    value: UnsafeCell<T>,
}

// SAFETY: the scheduler serializes all model threads, so `&Mutex<T>`
// handed across threads never yields concurrent access to `value`; the
// guard protocol below additionally enforces mutual exclusion.
unsafe impl<T: Send> Send for Mutex<T> {}
// SAFETY: as above — shared references only reach `value` through a
// guard obtained from the scheduler's lock operation.
unsafe impl<T: Send> Sync for Mutex<T> {}

/// RAII guard for [`Mutex`]; releases on drop.
pub struct Guard<'a, T: Send + 'static> {
    mutex: &'a Mutex<T>,
    tid: usize,
}

impl<T: Send + 'static> Deref for Guard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: this thread holds the model lock (the scheduler's
        // `op_lock` returned and `drop` has not yet run), so it has
        // exclusive access to the protected value.
        unsafe { &*self.mutex.value.get() }
    }
}

impl<T: Send + 'static> DerefMut for Guard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref` — exclusive access while the model lock
        // is held.
        unsafe { &mut *self.mutex.value.get() }
    }
}

impl<T: Send + 'static> Drop for Guard<'_, T> {
    fn drop(&mut self) {
        self.mutex.exec.op_unlock(self.tid, self.mutex.id);
    }
}

/// Model condition variable.
pub struct Condvar {
    exec: Arc<Execution>,
    id: usize,
}

/// Model atomic `usize`. The value lives in the scheduler so every
/// access is serialized and clock-stamped.
pub struct AtomicUsize {
    exec: Arc<Execution>,
    id: usize,
}

/// Handle to a model thread.
pub struct JoinHandle {
    exec: Arc<Execution>,
    tid: usize,
}

// The `T: 'a` where-clauses must match the trait's split bounds (E0195).
#[allow(clippy::multiple_bound_locations)]
impl SyncBackend for ModelSync {
    type Mutex<T: Send + 'static> = Mutex<T>;
    type Guard<'a, T: Send + 'static>
        = Guard<'a, T>
    where
        T: 'a;
    type Condvar = Condvar;
    type AtomicUsize = AtomicUsize;
    type JoinHandle = JoinHandle;

    fn mutex<T: Send + 'static>(value: T) -> Mutex<T> {
        let (exec, _) = current();
        let id = exec.register_mutex();
        Mutex {
            exec,
            id,
            value: UnsafeCell::new(value),
        }
    }

    fn lock<'a, T: Send + 'static>(mutex: &'a Mutex<T>) -> Guard<'a, T>
    where
        T: 'a,
    {
        let (_, tid) = current();
        mutex.exec.op_lock(tid, mutex.id);
        Guard { mutex, tid }
    }

    fn condvar() -> Condvar {
        let (exec, _) = current();
        let id = exec.register_condvar();
        Condvar { exec, id }
    }

    fn wait<'a, T: Send + 'static>(cv: &Condvar, guard: Guard<'a, T>) -> Guard<'a, T>
    where
        T: 'a,
    {
        let mutex = guard.mutex;
        let tid = guard.tid;
        // The scheduler releases the mutex atomically with blocking on
        // the condvar; the guard must not run its unlocking Drop.
        std::mem::forget(guard);
        cv.exec.op_cv_wait(tid, cv.id, mutex.id);
        Guard { mutex, tid }
    }

    fn notify_all(cv: &Condvar) {
        let (_, tid) = current();
        cv.exec.op_notify_all(tid, cv.id);
    }

    fn atomic_usize(value: usize) -> AtomicUsize {
        let (exec, _) = current();
        let id = exec.register_atomic(value);
        AtomicUsize { exec, id }
    }

    fn load(atomic: &AtomicUsize, _order: Ordering) -> usize {
        let (_, tid) = current();
        atomic.exec.op_atomic(tid, atomic.id, "load", |v| *v)
    }

    fn store(atomic: &AtomicUsize, value: usize, _order: Ordering) {
        let (_, tid) = current();
        atomic
            .exec
            .op_atomic(tid, atomic.id, "store", |v| *v = value);
    }

    fn fetch_add(atomic: &AtomicUsize, value: usize, _order: Ordering) -> usize {
        let (_, tid) = current();
        atomic.exec.op_atomic(tid, atomic.id, "fetch_add", |v| {
            let old = *v;
            *v = v.wrapping_add(value);
            old
        })
    }

    fn fetch_sub(atomic: &AtomicUsize, value: usize, _order: Ordering) -> usize {
        let (_, tid) = current();
        atomic.exec.op_atomic(tid, atomic.id, "fetch_sub", |v| {
            let old = *v;
            *v = v.wrapping_sub(value);
            old
        })
    }

    fn spawn<F: FnOnce() + Send + 'static>(name: &str, f: F) -> JoinHandle {
        let (exec, tid) = current();
        let new_tid = exec.op_spawn(tid, name, Box::new(f));
        JoinHandle { exec, tid: new_tid }
    }

    fn join(handle: JoinHandle) {
        let (_, tid) = current();
        handle.exec.op_join(tid, handle.tid);
    }
}

/// Spawn a named model thread (test-ergonomic alias for
/// `ModelSync::spawn`).
pub fn spawn<F: FnOnce() + Send + 'static>(name: &str, f: F) -> JoinHandle {
    ModelSync::spawn(name, f)
}

/// Join a model thread.
pub fn join(handle: JoinHandle) {
    ModelSync::join(handle)
}

/// A plain, intentionally lock-free memory cell whose every access is
/// race-checked by the scheduler's vector clocks. This is the model
/// stand-in for memory that real protocols protect by *protocol*
/// (publication order) rather than by a lock — e.g. the output ranges
/// pool chunks write and the caller reads after the join.
pub struct RaceCell<T> {
    exec: Arc<Execution>,
    id: usize,
    value: UnsafeCell<T>,
}

// SAFETY: the scheduler serializes model threads; accesses go through
// `op_cell_read`/`op_cell_write`, which freeze the execution before a
// second conflicting physical access can happen.
unsafe impl<T: Send> Send for RaceCell<T> {}
// SAFETY: as above.
unsafe impl<T: Send> Sync for RaceCell<T> {}

impl<T: Copy + Send + 'static> RaceCell<T> {
    /// Create a tracked cell. `label` names it in race reports.
    pub fn new(label: &str, value: T) -> Self {
        let (exec, _) = current();
        let id = exec.register_cell(label);
        Self {
            exec,
            id,
            value: UnsafeCell::new(value),
        }
    }

    /// Race-checked read.
    pub fn get(&self) -> T {
        let (_, tid) = current();
        self.exec.op_cell_read(tid, self.id);
        // SAFETY: this thread is the single running model thread and the
        // read was just clock-checked; conflicting executions freeze
        // inside `op_cell_read` and never reach this line.
        unsafe { *self.value.get() }
    }

    /// Race-checked write.
    pub fn set(&self, value: T) {
        let (_, tid) = current();
        self.exec.op_cell_write(tid, self.id);
        // SAFETY: as in `get` — single running thread, clock-checked.
        unsafe { *self.value.get() = value }
    }
}
