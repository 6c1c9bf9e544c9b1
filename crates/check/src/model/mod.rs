//! Deterministic concurrency model checker for the `mmsb_pool::sync`
//! layer.
//!
//! Protocols written against [`mmsb_pool::sync::SyncBackend`] can be
//! compiled against [`ModelSync`] and run under [`explore`], which
//! executes them under bounded-exhaustive thread interleavings and
//! checks for data races (on [`RaceCell`]s), deadlocks and lost
//! wakeups, escaped panics, and livelock (step budget).
//!
//! ```
//! use mmsb_check::model::{self, explore, Config, ModelSync, RaceCell};
//! use mmsb_pool::sync::SyncBackend;
//!
//! let report = explore(&Config::default(), || {
//!     let cell = std::sync::Arc::new(RaceCell::new("x", 0u64));
//!     let m = std::sync::Arc::new(ModelSync::mutex(()));
//!     let (c2, m2) = (cell.clone(), m.clone());
//!     let h = model::spawn("writer", move || {
//!         let _g = ModelSync::lock(&m2);
//!         c2.set(1);
//!     });
//!     {
//!         let _g = ModelSync::lock(&m);
//!         cell.set(2); // ordered by the mutex: no race
//!     }
//!     model::join(h);
//! });
//! report.assert_ok();
//! assert!(report.complete);
//! ```
//!
//! Reading a counterexample: [`Violation::trace`] lists every scheduler
//! step of the failing execution as `step [thread] operation`; the last
//! line before the state summary is the operation that tripped the
//! check, and the interleaving of `[thread]` tags above it is the
//! schedule that makes the bug happen. The trailing `replay:` line
//! gives the seed; running the same `explore` with that seed in
//! [`Config`] reproduces the identical trace (the DFS is fully
//! deterministic).

mod backend;
mod clock;
mod sched;

pub use backend::{
    join, spawn, AtomicUsize, Condvar, Guard, JoinHandle, ModelSync, Mutex, RaceCell,
};
pub use sched::{explore, Config, Report, Violation, ViolationKind};
