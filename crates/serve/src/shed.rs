//! Connection admission, load shedding, and the two-phase drain protocol.
//!
//! Each of the server's `threads` workers serves one connection at a
//! time, one request at a time, so at most `threads` connections and
//! `threads` requests are ever live: the worker count is the one limit.
//! [`AdmissionIn`] is the wait-free accounting core every worker shares:
//!
//! * **Connection permits** — [`AdmissionIn::try_admit`] charges one
//!   slot with a single `fetch_add`. Admitted connections hold an RAII
//!   [`ConnPermit`], so a slot can never leak or be double-released by
//!   construction.
//! * **Shedding** — when [`AdmissionIn::saturated`] says every worker
//!   holds a connection, a busy worker sweeps the kernel backlog and
//!   answers the queued connections with the canned fast-path 503
//!   (`http::SHED_RESPONSE`), counted by [`AdmissionIn::count_shed_conn`].
//! * **Lifecycle** — one pair of set-only flags ([`Lifecycle`]):
//!   `Accepting` → `Draining` (stop admitting, finish buffered work,
//!   close at request boundaries) → `Closed` (force-close stragglers).
//!   The transition is monotone; [`AdmissionIn::try_admit`] re-checks
//!   the lifecycle *after* charging its slot so a drain that races an
//!   admit either refuses the connection or observes its slot charged —
//!   a connection can never be admitted-but-invisible to the drainer.
//! * **Exact drain accounting** — connections closed during a drain are
//!   counted completed (clean, at a request boundary) or aborted
//!   (force-closed); the server publishes both through `mmsb-obs` and
//!   returns them in its `DrainReport`.
//!
//! Everything is generic over [`SyncBackend`]: production uses
//! [`Admission`] (= `RealSync`), and `crates/check/tests/model_admission.rs`
//! runs the *same* code on the model scheduler, exploring every
//! interleaving of admit / release / drain — including seeded-bug
//! negative controls that the checker must catch.

use mmsb_pool::{RealSync, SyncBackend};
use std::sync::atomic::Ordering;

/// Where the server is in its life. Transitions are one-way:
/// `Accepting → Draining → Closed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifecycle {
    /// Normal operation: connections are admitted.
    Accepting,
    /// Phase one of a drain: no new admissions; open connections finish
    /// the requests they have buffered and close at the next request
    /// boundary.
    Draining,
    /// Phase two: the drain deadline passed; workers abandon their
    /// connections at the next I/O boundary.
    Closed,
}

// The lifecycle is stored as two set-only flags rather than one
// multi-valued atomic: `SyncBackend` has no compare-exchange, and a
// load-then-store "monotone max" is a rollback race under a
// `begin_drain` / `force_close` interleaving (found by the model
// checker). A flag that is only ever set is monotone by construction.

/// Admission / drain accounting, generic over the sync backend so the
/// protocol can be model-checked. All hot-path operations are single
/// uncontended-in-the-common-case atomic RMWs — wait-free, no locks,
/// no allocation.
pub struct AdmissionIn<S: SyncBackend> {
    /// Connections currently holding a permit.
    conns: S::AtomicUsize,
    /// Set-only flag: a drain has begun (phase one or later).
    draining: S::AtomicUsize,
    /// Set-only flag: phase two (force-close) has begun.
    closed: S::AtomicUsize,
    /// Connections ever admitted (monotone; conservation check).
    admitted_total: S::AtomicUsize,
    /// Permits ever released (monotone; conservation check).
    released_total: S::AtomicUsize,
    /// Connections refused with the fast-path 503.
    shed_conns: S::AtomicUsize,
    /// Connections closed cleanly during a drain.
    drain_completed: S::AtomicUsize,
    /// Connections force-closed by phase two of a drain.
    drain_aborted: S::AtomicUsize,
}

/// [`AdmissionIn`] on the production (`std::sync`) backend.
pub type Admission = AdmissionIn<RealSync>;

impl<S: SyncBackend> Default for AdmissionIn<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: SyncBackend> AdmissionIn<S> {
    /// An accepting controller with no connection open.
    pub fn new() -> Self {
        Self {
            conns: S::atomic_usize(0),
            draining: S::atomic_usize(0),
            closed: S::atomic_usize(0),
            admitted_total: S::atomic_usize(0),
            released_total: S::atomic_usize(0),
            shed_conns: S::atomic_usize(0),
            drain_completed: S::atomic_usize(0),
            drain_aborted: S::atomic_usize(0),
        }
    }

    /// The current lifecycle phase.
    pub fn lifecycle(&self) -> Lifecycle {
        if S::load(&self.closed, Ordering::Acquire) != 0 {
            Lifecycle::Closed
        } else if S::load(&self.draining, Ordering::Acquire) != 0 {
            Lifecycle::Draining
        } else {
            Lifecycle::Accepting
        }
    }

    fn accepting(&self) -> bool {
        // `force_close` sets both flags, so one load covers both
        // drained phases on the admission fast path.
        S::load(&self.draining, Ordering::Acquire) == 0
    }

    /// Try to admit one connection; `None` means the server is draining
    /// or closed and the connection must not be served. Wait-free: one
    /// `fetch_add` plus at most one corrective `fetch_sub`. The
    /// lifecycle is re-checked *after* the slot is charged, so a
    /// concurrent [`Self::begin_drain`] either sees the slot (and waits
    /// for its release) or this call sees the drain (and refuses) —
    /// never neither.
    pub fn try_admit(&self) -> Option<ConnPermit<'_, S>> {
        if !self.accepting() {
            return None;
        }
        S::fetch_add(&self.conns, 1, Ordering::AcqRel);
        if !self.accepting() {
            // A drain began between the first check and the charge;
            // undo and refuse so "stop accepting" is exact.
            S::fetch_sub(&self.conns, 1, Ordering::AcqRel);
            return None;
        }
        S::fetch_add(&self.admitted_total, 1, Ordering::Relaxed);
        Some(ConnPermit { adm: Some(self) })
    }

    /// Whether a pending (kernel-queued) connection should be shed by a
    /// busy worker's sweep: true when all `threads` workers hold a
    /// connection, so nobody will serve it promptly.
    pub fn saturated(&self, threads: usize) -> bool {
        self.conns() >= threads
    }

    /// Count one fast-path 503 written by the sweep to a connection that
    /// never held a permit (the kernel accepted the socket; we refuse
    /// it before parsing).
    pub fn count_shed_conn(&self) {
        S::fetch_add(&self.shed_conns, 1, Ordering::Relaxed);
    }

    /// Enter phase one of a drain: stop admitting. Idempotent; a later
    /// [`Self::force_close`] is never undone by this call (the flags
    /// are set-only, so the lifecycle is monotone under any race).
    pub fn begin_drain(&self) {
        S::store(&self.draining, 1, Ordering::Release);
    }

    /// Enter phase two: workers abandon connections at their next I/O
    /// boundary. Idempotent, and implies [`Self::begin_drain`].
    pub fn force_close(&self) {
        S::store(&self.draining, 1, Ordering::Release);
        S::store(&self.closed, 1, Ordering::Release);
    }

    /// Connections currently holding a permit.
    pub fn conns(&self) -> usize {
        S::load(&self.conns, Ordering::Acquire)
    }

    /// True when no connection holds a slot — the drain termination
    /// condition (every live request is served on a connection that
    /// holds one).
    pub fn quiescent(&self) -> bool {
        self.conns() == 0
    }

    /// `(admitted, released, shed_conns)` running totals.
    pub fn totals(&self) -> (usize, usize, usize) {
        (
            S::load(&self.admitted_total, Ordering::Acquire),
            S::load(&self.released_total, Ordering::Acquire),
            S::load(&self.shed_conns, Ordering::Acquire),
        )
    }

    /// `(completed, aborted)` drain accounting so far.
    pub fn drain_counts(&self) -> (usize, usize) {
        (
            S::load(&self.drain_completed, Ordering::Acquire),
            S::load(&self.drain_aborted, Ordering::Acquire),
        )
    }

    fn release_conn(&self) {
        S::fetch_add(&self.released_total, 1, Ordering::Relaxed);
        S::fetch_sub(&self.conns, 1, Ordering::AcqRel);
    }

    /// Test-only raw decrement, bypassing the permit: exists so the
    /// model-check negative controls can seed a double-decrement bug
    /// and prove the checker catches it. Never call from server code.
    #[doc(hidden)]
    pub fn raw_release_conn_for_tests(&self) {
        self.release_conn();
    }
}

impl<S: SyncBackend> std::fmt::Debug for AdmissionIn<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Admission")
            .field("lifecycle", &self.lifecycle())
            .field("conns", &self.conns())
            .finish()
    }
}

/// RAII connection slot. Dropping releases the slot; [`Self::close`]
/// additionally records how the connection ended for the drain
/// accounting.
pub struct ConnPermit<'a, S: SyncBackend> {
    adm: Option<&'a AdmissionIn<S>>,
}

/// How an admitted connection ended, for exact drain accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnClose {
    /// Closed during normal operation (peer close, error, deadline, …).
    Normal,
    /// Closed cleanly at a request boundary during a drain.
    DrainCompleted,
    /// Force-closed by phase two of a drain.
    DrainAborted,
}

impl<S: SyncBackend> ConnPermit<'_, S> {
    /// Record the close outcome and release the slot.
    pub fn close(mut self, how: ConnClose) {
        if let Some(adm) = self.adm.take() {
            match how {
                ConnClose::Normal => {}
                ConnClose::DrainCompleted => {
                    S::fetch_add(&adm.drain_completed, 1, Ordering::Relaxed);
                }
                ConnClose::DrainAborted => {
                    S::fetch_add(&adm.drain_aborted, 1, Ordering::Relaxed);
                }
            }
            adm.release_conn();
        }
    }
}

impl<S: SyncBackend> Drop for ConnPermit<'_, S> {
    fn drop(&mut self) {
        if let Some(adm) = self.adm.take() {
            adm.release_conn();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Adm = Admission;

    /// Admission itself never refuses an accepting server; the sweep
    /// sheds once `threads` connections are open, and a release makes
    /// room again.
    #[test]
    fn admits_up_to_cap_then_sheds() {
        let threads = 2;
        let adm = Adm::new();
        let a = adm.try_admit().expect("first admit");
        assert!(!adm.saturated(threads));
        let b = adm.try_admit().expect("second admit");
        assert!(adm.saturated(threads));
        assert_eq!(adm.conns(), 2);
        adm.count_shed_conn();
        drop(a);
        assert!(!adm.saturated(threads));
        let c = adm.try_admit().expect("a released slot admits again");
        drop(b);
        drop(c);
        let (admitted, released, shed) = adm.totals();
        assert_eq!(admitted, 3);
        assert_eq!(released, 3);
        assert_eq!(shed, 1);
        assert!(adm.quiescent());
    }

    #[test]
    fn drain_refuses_new_admits_and_counts_outcomes() {
        let adm = Adm::new();
        let p = adm.try_admit().expect("admit");
        adm.begin_drain();
        assert_eq!(adm.lifecycle(), Lifecycle::Draining);
        assert!(adm.try_admit().is_none());
        assert!(!adm.quiescent());
        p.close(ConnClose::DrainCompleted);
        assert!(adm.quiescent());
        adm.force_close();
        assert_eq!(adm.lifecycle(), Lifecycle::Closed);
        // begin_drain after force_close must not roll the phase back.
        adm.begin_drain();
        assert_eq!(adm.lifecycle(), Lifecycle::Closed);
        assert_eq!(adm.drain_counts(), (1, 0));
    }

    #[test]
    fn permit_drop_and_close_both_release_exactly_once() {
        let adm = Adm::new();
        adm.try_admit()
            .expect("admit")
            .close(ConnClose::DrainAborted);
        assert_eq!(adm.conns(), 0);
        assert_eq!(adm.drain_counts(), (0, 1));
        drop(adm.try_admit().expect("admit"));
        assert_eq!(adm.conns(), 0);
        let (admitted, released, _) = adm.totals();
        assert_eq!((admitted, released), (2, 2));
    }
}
