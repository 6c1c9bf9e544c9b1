//! The deterministic model-checking scheduler.
//!
//! [`explore`] runs a closure (the "protocol body") repeatedly, each time
//! under a different thread interleaving, until the bounded-exhaustive
//! DFS over scheduling choices is complete or a budget is hit. Model
//! threads are real OS threads, but only one is ever *logically* running:
//! every synchronization operation routes through this scheduler, which
//! picks the next thread to run, parks the rest, and records the choice
//! on a DFS path so the next execution can deviate at the deepest
//! unexhausted branch.
//!
//! Choice points only exist where they matter: after acquire-type
//! operations (lock, wait wakeup, notify, atomic access, tracked-cell
//! access, spawn, join) the scheduler may preempt the running thread,
//! subject to the preemption bound. Release operations (unlock) make
//! blocked threads runnable but do not reschedule, which keeps the state
//! space small without hiding bugs: any racing access on the other
//! thread still gets its own choice point.
//!
//! Violations (data race, deadlock — which includes lost wakeups —
//! double publish, consume-of-empty, panic escaping a thread, step
//! budget) abort the execution: the detecting thread records the trace,
//! wakes the explorer, and parks forever. Threads of an aborted
//! execution are intentionally leaked; a violation ends the whole
//! exploration, so the leak is bounded by one execution's thread count.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

use mmsb_rand::{RngCore, SplitMix64};

use super::clock::VClock;

/// Exploration budgets and the replay seed.
#[derive(Debug, Clone)]
pub struct Config {
    /// Stop after this many executions even if the DFS is not exhausted.
    pub max_executions: usize,
    /// Maximum number of times a *runnable* thread may be switched away
    /// from per execution. Blocking switches are free. 2–3 catches the
    /// overwhelming majority of concurrency bugs (CHESS observation)
    /// while keeping the state space polynomial.
    pub preemption_bound: usize,
    /// Seeds the order in which branches are tried at each new choice
    /// point. Any seed explores the same *set* of interleavings; the
    /// seed only permutes the order, so a counterexample is reproduced
    /// by re-running with the seed printed in the report.
    pub seed: u64,
    /// Per-execution step budget; exceeding it is reported as a
    /// violation (livelock / runaway protocol).
    pub max_steps: usize,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            max_executions: 20_000,
            preemption_bound: 2,
            seed: 0x6d6d_7362, // "mmsb"
            max_steps: 20_000,
        }
    }
}

/// What went wrong in a counterexample execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// Unfinished threads exist but none is runnable. Lost wakeups
    /// (notify consumed before the waiter blocked, or never sent)
    /// surface as this.
    Deadlock,
    /// Two accesses to a tracked cell unordered by happens-before.
    DataRace,
    /// A panic escaped a model thread's closure.
    ThreadPanic,
    /// The execution exceeded [`Config::max_steps`].
    StepBudget,
}

/// A counterexample: what happened, and the interleaving that shows it.
#[derive(Debug, Clone)]
pub struct Violation {
    pub kind: ViolationKind,
    /// One-line description naming the objects and threads involved.
    pub message: String,
    /// Step-by-step schedule trace of the failing execution (the tail,
    /// if long), ending with a per-thread state summary.
    pub trace: String,
}

/// Result of an [`explore`] call.
#[derive(Debug)]
pub struct Report {
    /// Number of distinct interleavings executed.
    pub executions: usize,
    /// True iff the DFS exhausted every interleaving within the bounds.
    pub complete: bool,
    /// The first violation found, if any. Exploration stops at the
    /// first violation.
    pub violation: Option<Violation>,
}

impl Report {
    /// Panic with the counterexample trace if a violation was found.
    pub fn assert_ok(&self) {
        if let Some(v) = &self.violation {
            panic!(
                "model check failed after {} executions: {:?}: {}\n{}",
                self.executions, v.kind, v.message, v.trace
            );
        }
    }
}

/// One DFS choice point: `n` options, `first` the seed-chosen starting
/// index, `tried` how many alternatives have been consumed. The branch
/// actually taken is `(first + tried) % n`.
#[derive(Debug, Clone)]
struct PathEntry {
    first: usize,
    tried: usize,
    n: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum TState {
    Running,
    Runnable,
    BlockedMutex(usize),
    BlockedCv(usize),
    BlockedJoin(usize),
    Finished,
}

/// Binary-semaphore parker: an `unpark` delivered before `park` is not
/// lost, which is essential because the scheduler may grant a thread
/// before that thread has finished parking itself.
struct Parker {
    lock: StdMutex<bool>,
    cv: StdCondvar,
}

impl Parker {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            lock: StdMutex::new(false),
            cv: StdCondvar::new(),
        })
    }

    fn park(&self) {
        let mut token = self.lock.lock().unwrap();
        while !*token {
            token = self.cv.wait(token).unwrap();
        }
        *token = false;
    }

    fn unpark(&self) {
        *self.lock.lock().unwrap() = true;
        self.cv.notify_one();
    }
}

struct ThreadRec {
    name: String,
    parker: Arc<Parker>,
    state: TState,
    clock: VClock,
}

struct MutexRec {
    held: bool,
    clock: VClock,
}

struct AtomicRec {
    value: usize,
    clock: VClock,
}

/// One recorded access to a tracked cell.
#[derive(Clone)]
pub(crate) struct Access {
    thread: String,
    step: usize,
    clock: VClock,
}

struct CellRec {
    label: String,
    last_write: Option<Access>,
    reads: Vec<Access>,
}

struct Sched {
    threads: Vec<ThreadRec>,
    steps: usize,
    /// Next DFS choice index within `path`.
    depth: usize,
    path: Vec<PathEntry>,
    preemptions: usize,
    trace: Vec<String>,
    violation: Option<Violation>,
    mutexes: Vec<MutexRec>,
    condvars: Vec<VClock>,
    atomics: Vec<AtomicRec>,
    cells: Vec<CellRec>,
    preemption_bound: usize,
    max_steps: usize,
    seed: u64,
}

/// One execution's shared state: the logical scheduler plus the parker
/// the exploring (outside) thread waits on.
pub(crate) struct Execution {
    sched: StdMutex<Sched>,
    explorer: Arc<Parker>,
}

struct Ctx {
    exec: Arc<Execution>,
    tid: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// The execution/thread identity of the calling model thread. Panics if
/// called from outside an [`explore`] body.
pub(crate) fn current() -> (Arc<Execution>, usize) {
    CTX.with(|c| {
        let b = c.borrow();
        let ctx = b
            .as_ref()
            .expect("model sync primitive used outside explore()");
        (Arc::clone(&ctx.exec), ctx.tid)
    })
}

fn set_ctx(exec: Arc<Execution>, tid: usize) {
    CTX.with(|c| *c.borrow_mut() = Some(Ctx { exec, tid }));
}

/// Seed-derived starting branch for choice point `depth` with `n`
/// options. Pure function of (seed, depth, n) so replay is exact.
fn seeded_first(seed: u64, depth: usize, n: usize) -> usize {
    let mut rng = SplitMix64::new(seed ^ (depth as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (rng.next_u64() % n as u64) as usize
}

impl Execution {
    fn new(cfg: &Config, path: Vec<PathEntry>) -> Arc<Self> {
        Arc::new(Self {
            sched: StdMutex::new(Sched {
                threads: vec![ThreadRec {
                    name: "main".to_string(),
                    parker: Parker::new(),
                    state: TState::Running,
                    clock: VClock::default(),
                }],
                steps: 0,
                depth: 0,
                path,
                preemptions: 0,
                trace: Vec::new(),
                violation: None,
                mutexes: Vec::new(),
                condvars: Vec::new(),
                atomics: Vec::new(),
                cells: Vec::new(),
                preemption_bound: cfg.preemption_bound,
                max_steps: cfg.max_steps,
                seed: cfg.seed,
            }),
            explorer: Parker::new(),
        })
    }

    // ---- object registration (not scheduling points) ----

    pub(crate) fn register_mutex(&self) -> usize {
        let mut s = self.sched.lock().unwrap();
        s.mutexes.push(MutexRec {
            held: false,
            clock: VClock::default(),
        });
        s.mutexes.len() - 1
    }

    pub(crate) fn register_condvar(&self) -> usize {
        let mut s = self.sched.lock().unwrap();
        s.condvars.push(VClock::default());
        s.condvars.len() - 1
    }

    pub(crate) fn register_atomic(&self, value: usize) -> usize {
        let mut s = self.sched.lock().unwrap();
        s.atomics.push(AtomicRec {
            value,
            clock: VClock::default(),
        });
        s.atomics.len() - 1
    }

    pub(crate) fn register_cell(&self, label: &str) -> usize {
        let mut s = self.sched.lock().unwrap();
        s.cells.push(CellRec {
            label: label.to_string(),
            last_write: None,
            reads: Vec::new(),
        });
        s.cells.len() - 1
    }

    // ---- scheduler internals ----

    /// Freeze the calling thread forever (its execution was aborted).
    /// Nothing ever unparks it; the OS thread is leaked by design.
    fn freeze(&self) -> ! {
        loop {
            std::thread::park();
        }
    }

    /// Entry check for every operation: if the execution is already
    /// aborted, the thread must stop interacting with it.
    fn abort_check(&self, s: &StdMutexGuard<'_, Sched>) -> bool {
        s.violation.is_some()
    }

    fn record_violation(&self, s: &mut Sched, kind: ViolationKind, message: String) {
        if s.violation.is_some() {
            return;
        }
        let mut trace = String::new();
        let start = s.trace.len().saturating_sub(120);
        if start > 0 {
            trace.push_str(&format!("  ... ({start} earlier steps elided)\n"));
        }
        for line in &s.trace[start..] {
            trace.push_str(line);
            trace.push('\n');
        }
        trace.push_str("thread states at failure:\n");
        for t in &s.threads {
            trace.push_str(&format!("  [{}] {:?}\n", t.name, t.state));
        }
        trace.push_str(&format!(
            "replay: seed={:#x} preemption_bound={}\n",
            s.seed, s.preemption_bound
        ));
        s.violation = Some(Violation {
            kind,
            message,
            trace,
        });
        self.explorer.unpark();
    }

    /// Count a step and append a trace line. Returns false when the
    /// step budget is blown (a violation has been recorded).
    fn step(&self, s: &mut Sched, tid: usize, desc: &str) -> bool {
        s.steps += 1;
        let line = format!("{:>5}  [{}] {}", s.steps, s.threads[tid].name, desc);
        s.trace.push(line);
        if s.steps > s.max_steps {
            self.record_violation(
                s,
                ViolationKind::StepBudget,
                format!(
                    "execution exceeded {} steps; livelock or unbounded protocol",
                    s.max_steps
                ),
            );
            return false;
        }
        true
    }

    /// Pick a branch among `n` options, recording it on the DFS path.
    /// Deterministic given (path prefix, seed).
    fn choose(&self, s: &mut Sched, n: usize) -> usize {
        debug_assert!(n > 0);
        if n == 1 {
            return 0;
        }
        let depth = s.depth;
        s.depth += 1;
        if depth < s.path.len() {
            let e = &s.path[depth];
            debug_assert_eq!(
                e.n, n,
                "replay divergence: the model saw a different option count at depth {depth}"
            );
            (e.first + e.tried) % e.n
        } else {
            let first = seeded_first(s.seed, depth, n);
            s.path.push(PathEntry { first, tried: 0, n });
            first
        }
    }

    /// Choose the next thread to run. `self_runnable` says whether the
    /// calling thread may continue (it is still `Running` and not
    /// blocked). Returns `None` when the execution is over (all
    /// finished, or a violation such as deadlock was recorded).
    fn pick(&self, s: &mut Sched, tid: usize, self_runnable: bool) -> Option<usize> {
        let mut opts: Vec<usize> = Vec::with_capacity(s.threads.len());
        for (i, t) in s.threads.iter().enumerate() {
            match t.state {
                TState::Runnable => opts.push(i),
                TState::Running if i == tid && self_runnable => opts.push(i),
                _ => {}
            }
        }
        if opts.is_empty() {
            if s.threads.iter().all(|t| t.state == TState::Finished) {
                self.explorer.unpark();
            } else {
                let blocked: Vec<String> = s
                    .threads
                    .iter()
                    .filter(|t| t.state != TState::Finished)
                    .map(|t| format!("[{}] {:?}", t.name, t.state))
                    .collect();
                self.record_violation(
                    s,
                    ViolationKind::Deadlock,
                    format!(
                        "no runnable thread but {} unfinished: {}",
                        blocked.len(),
                        blocked.join(", ")
                    ),
                );
            }
            return None;
        }
        let chosen = if self_runnable && s.preemptions >= s.preemption_bound {
            // Preemption budget spent: the running thread must continue.
            tid
        } else {
            let idx = self.choose(s, opts.len());
            opts[idx]
        };
        if self_runnable && chosen != tid {
            s.preemptions += 1;
        }
        Some(chosen)
    }

    /// Hand control to `chosen` (possibly the calling thread). The
    /// calling thread's state must already reflect why it is yielding
    /// (Running to keep going, Runnable/Blocked*/Finished otherwise).
    /// Consumes the scheduler guard; parks the caller when another
    /// thread was granted.
    fn switch_to(&self, mut s: StdMutexGuard<'_, Sched>, tid: usize, chosen: Option<usize>) {
        match chosen {
            Some(next) if next == tid => {
                // Keep running; state is already Running.
            }
            Some(next) => {
                if s.threads[tid].state == TState::Running {
                    s.threads[tid].state = TState::Runnable;
                }
                s.threads[next].state = TState::Running;
                let next_parker = Arc::clone(&s.threads[next].parker);
                let finished = s.threads[tid].state == TState::Finished;
                let my_parker = Arc::clone(&s.threads[tid].parker);
                drop(s);
                next_parker.unpark();
                if finished {
                    return;
                }
                my_parker.park();
            }
            None => {
                let finished = s.threads[tid].state == TState::Finished;
                drop(s);
                if !finished {
                    // Aborted execution (deadlock or other violation).
                    self.freeze();
                }
            }
        }
    }

    /// Common tail of non-blocking operations: a scheduling point where
    /// the running thread may be preempted.
    fn yield_point(&self, s: StdMutexGuard<'_, Sched>, tid: usize) {
        let mut s = s;
        let chosen = self.pick(&mut s, tid, true);
        self.switch_to(s, tid, chosen);
    }

    // ---- operations ----

    pub(crate) fn op_lock(&self, tid: usize, mid: usize) {
        loop {
            let mut s = self.sched.lock().unwrap();
            if self.abort_check(&s) {
                drop(s);
                self.freeze();
            }
            if !s.mutexes[mid].held {
                if !self.step(&mut s, tid, &format!("lock mutex#{mid} -> acquired")) {
                    drop(s);
                    self.freeze();
                }
                s.mutexes[mid].held = true;
                // Acquire edge: everything released at the last unlock
                // happens-before this critical section.
                let mc = s.mutexes[mid].clock.clone();
                s.threads[tid].clock.join(&mc);
                s.threads[tid].clock.tick(tid);
                self.yield_point(s, tid);
                return;
            }
            if !self.step(&mut s, tid, &format!("lock mutex#{mid} -> blocked")) {
                drop(s);
                self.freeze();
            }
            s.threads[tid].state = TState::BlockedMutex(mid);
            let chosen = self.pick(&mut s, tid, false);
            self.switch_to(s, tid, chosen);
            // Woken: the mutex was released at some point; retry.
        }
    }

    pub(crate) fn op_unlock(&self, tid: usize, mid: usize) {
        let mut s = self.sched.lock().unwrap();
        if self.abort_check(&s) {
            // Unlock during an aborted execution's unwinding: ignore.
            return;
        }
        if !self.step(&mut s, tid, &format!("unlock mutex#{mid}")) {
            drop(s);
            self.freeze();
        }
        // Release edge.
        let tc = s.threads[tid].clock.clone();
        s.mutexes[mid].clock.join(&tc);
        s.threads[tid].clock.tick(tid);
        s.mutexes[mid].held = false;
        for t in s.threads.iter_mut() {
            if t.state == TState::BlockedMutex(mid) {
                t.state = TState::Runnable;
            }
        }
        // Deliberately not a scheduling point: the unlocking thread
        // continues; every woken thread gets its own choice point when
        // it retries the lock.
    }

    pub(crate) fn op_cv_wait(&self, tid: usize, cvid: usize, mid: usize) {
        {
            let mut s = self.sched.lock().unwrap();
            if self.abort_check(&s) {
                drop(s);
                self.freeze();
            }
            if !self.step(
                &mut s,
                tid,
                &format!("wait cv#{cvid} (releases mutex#{mid})"),
            ) {
                drop(s);
                self.freeze();
            }
            // Atomically release the mutex and block on the condvar —
            // no window where a notify can be lost between the two.
            let tc = s.threads[tid].clock.clone();
            s.mutexes[mid].clock.join(&tc);
            s.threads[tid].clock.tick(tid);
            s.mutexes[mid].held = false;
            for t in s.threads.iter_mut() {
                if t.state == TState::BlockedMutex(mid) {
                    t.state = TState::Runnable;
                }
            }
            s.threads[tid].state = TState::BlockedCv(cvid);
            let chosen = self.pick(&mut s, tid, false);
            self.switch_to(s, tid, chosen);
        }
        // Notified. Acquire the condvar's clock (the release edge the
        // notifier published), then reacquire the mutex.
        {
            let mut s = self.sched.lock().unwrap();
            if self.abort_check(&s) {
                drop(s);
                self.freeze();
            }
            let cvc = s.condvars[cvid].clone();
            s.threads[tid].clock.join(&cvc);
        }
        self.op_lock(tid, mid);
    }

    pub(crate) fn op_notify_all(&self, tid: usize, cvid: usize) {
        let mut s = self.sched.lock().unwrap();
        if self.abort_check(&s) {
            drop(s);
            self.freeze();
        }
        if !self.step(&mut s, tid, &format!("notify_all cv#{cvid}")) {
            drop(s);
            self.freeze();
        }
        // Release edge into the condvar.
        let tc = s.threads[tid].clock.clone();
        s.condvars[cvid].join(&tc);
        s.threads[tid].clock.tick(tid);
        for t in &mut s.threads {
            if t.state == TState::BlockedCv(cvid) {
                t.state = TState::Runnable;
            }
        }
        // A notify with no waiters is legal; if the intended waiter has
        // not blocked yet the signal is lost, and the resulting hang is
        // caught as a Deadlock.
        self.yield_point(s, tid);
    }

    /// All atomics are modeled as sequentially consistent: the access
    /// both acquires and releases through the atomic's clock. This
    /// over-synchronizes relative to Relaxed/Acquire/Release, so the
    /// model can miss ordering-specific bugs but reports no false races.
    pub(crate) fn op_atomic<R>(
        &self,
        tid: usize,
        aid: usize,
        desc: &str,
        f: impl FnOnce(&mut usize) -> R,
    ) -> R {
        let mut s = self.sched.lock().unwrap();
        if self.abort_check(&s) {
            drop(s);
            self.freeze();
        }
        if !self.step(&mut s, tid, &format!("atomic#{aid}.{desc}")) {
            drop(s);
            self.freeze();
        }
        let ac = s.atomics[aid].clock.clone();
        s.threads[tid].clock.join(&ac);
        let r = f(&mut s.atomics[aid].value);
        let tc = s.threads[tid].clock.clone();
        s.atomics[aid].clock.join(&tc);
        s.threads[tid].clock.tick(tid);
        self.yield_point(s, tid);
        r
    }

    /// Race-check a read of a tracked cell. The physical read happens
    /// after this returns, while the thread is the single running one.
    pub(crate) fn op_cell_read(&self, tid: usize, cid: usize) {
        let mut s = self.sched.lock().unwrap();
        if self.abort_check(&s) {
            drop(s);
            self.freeze();
        }
        let label = s.cells[cid].label.clone();
        if !self.step(&mut s, tid, &format!("read cell `{label}`")) {
            drop(s);
            self.freeze();
        }
        s.threads[tid].clock.tick(tid);
        let access = Access {
            thread: s.threads[tid].name.clone(),
            step: s.steps,
            clock: s.threads[tid].clock.clone(),
        };
        if let Some(w) = &s.cells[cid].last_write {
            if !w.clock.le(&access.clock) {
                let msg = format!(
                    "data race on cell `{label}`: read by [{}] at step {} is unordered with write by [{}] at step {}",
                    access.thread, access.step, w.thread, w.step
                );
                self.record_violation(&mut s, ViolationKind::DataRace, msg);
                drop(s);
                self.freeze();
            }
        }
        s.cells[cid].reads.push(access);
        self.yield_point(s, tid);
    }

    /// Race-check a write of a tracked cell.
    pub(crate) fn op_cell_write(&self, tid: usize, cid: usize) {
        let mut s = self.sched.lock().unwrap();
        if self.abort_check(&s) {
            drop(s);
            self.freeze();
        }
        let label = s.cells[cid].label.clone();
        if !self.step(&mut s, tid, &format!("write cell `{label}`")) {
            drop(s);
            self.freeze();
        }
        s.threads[tid].clock.tick(tid);
        let access = Access {
            thread: s.threads[tid].name.clone(),
            step: s.steps,
            clock: s.threads[tid].clock.clone(),
        };
        let conflict = {
            let cell = &s.cells[cid];
            let w = cell
                .last_write
                .as_ref()
                .filter(|w| !w.clock.le(&access.clock))
                .map(|w| ("write", w.clone()));
            w.or_else(|| {
                cell.reads
                    .iter()
                    .find(|r| !r.clock.le(&access.clock))
                    .map(|r| ("read", r.clone()))
            })
        };
        if let Some((what, prev)) = conflict {
            let msg = format!(
                "data race on cell `{label}`: write by [{}] at step {} is unordered with {what} by [{}] at step {}",
                access.thread, access.step, prev.thread, prev.step
            );
            self.record_violation(&mut s, ViolationKind::DataRace, msg);
            drop(s);
            self.freeze();
        }
        s.cells[cid].last_write = Some(access);
        s.cells[cid].reads.clear();
        self.yield_point(s, tid);
    }

    pub(crate) fn op_spawn(
        self: &Arc<Self>,
        tid: usize,
        name: &str,
        f: Box<dyn FnOnce() + Send + 'static>,
    ) -> usize {
        let new_tid;
        let parker;
        {
            let mut s = self.sched.lock().unwrap();
            if self.abort_check(&s) {
                drop(s);
                self.freeze();
            }
            if !self.step(&mut s, tid, &format!("spawn thread [{name}]")) {
                drop(s);
                self.freeze();
            }
            new_tid = s.threads.len();
            // Spawn edge: everything before the spawn happens-before
            // everything in the child.
            let child_clock = s.threads[tid].clock.clone();
            s.threads[tid].clock.tick(tid);
            parker = Parker::new();
            s.threads.push(ThreadRec {
                name: name.to_string(),
                parker: Arc::clone(&parker),
                state: TState::Runnable,
                clock: child_clock,
            });
        }
        let exec = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("model-{name}"))
            .spawn(move || {
                set_ctx(Arc::clone(&exec), new_tid);
                // Wait until the scheduler first grants this thread.
                parker.park();
                let result = catch_unwind(AssertUnwindSafe(f));
                exec.op_finish(new_tid, result.err());
            })
            .expect("failed to spawn model thread");
        let s = self.sched.lock().unwrap();
        self.yield_point(s, tid);
        new_tid
    }

    pub(crate) fn op_join(&self, tid: usize, target: usize) {
        loop {
            let mut s = self.sched.lock().unwrap();
            if self.abort_check(&s) {
                drop(s);
                self.freeze();
            }
            let target_name = s.threads[target].name.clone();
            if s.threads[target].state == TState::Finished {
                if !self.step(&mut s, tid, &format!("join thread [{target_name}] -> done")) {
                    drop(s);
                    self.freeze();
                }
                // Join edge: everything the child did happens-before
                // the joiner's continuation.
                let tc = s.threads[target].clock.clone();
                s.threads[tid].clock.join(&tc);
                s.threads[tid].clock.tick(tid);
                self.yield_point(s, tid);
                return;
            }
            if !self.step(
                &mut s,
                tid,
                &format!("join thread [{target_name}] -> blocked"),
            ) {
                drop(s);
                self.freeze();
            }
            s.threads[tid].state = TState::BlockedJoin(target);
            let chosen = self.pick(&mut s, tid, false);
            self.switch_to(s, tid, chosen);
        }
    }

    /// Thread termination: records a `ThreadPanic` violation if a panic
    /// escaped the closure, otherwise marks Finished and wakes joiners.
    fn op_finish(&self, tid: usize, panic_payload: Option<Box<dyn std::any::Any + Send>>) {
        let mut s = self.sched.lock().unwrap();
        if self.abort_check(&s) {
            // Aborted execution: let the OS thread exit quietly.
            return;
        }
        if let Some(p) = panic_payload {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string payload>".to_string());
            let name = s.threads[tid].name.clone();
            self.record_violation(
                &mut s,
                ViolationKind::ThreadPanic,
                format!("panic escaped thread [{name}]: {msg}"),
            );
            return;
        }
        if !self.step(&mut s, tid, "thread exit") {
            drop(s);
            self.freeze();
        }
        s.threads[tid].state = TState::Finished;
        s.threads[tid].clock.tick(tid);
        for t in s.threads.iter_mut() {
            if t.state == TState::BlockedJoin(tid) {
                t.state = TState::Runnable;
            }
        }
        let chosen = self.pick(&mut s, tid, false);
        self.switch_to(s, tid, chosen);
    }
}

/// Run one execution along `path` (deviating per the `tried` counters),
/// returning the extended path and any violation.
fn run_once(
    cfg: &Config,
    path: Vec<PathEntry>,
    body: &Arc<dyn Fn() + Send + Sync>,
) -> (Vec<PathEntry>, Option<Violation>) {
    let exec = Execution::new(cfg, path);
    let e2 = Arc::clone(&exec);
    let b = Arc::clone(body);
    std::thread::Builder::new()
        .name("model-main".to_string())
        .spawn(move || {
            set_ctx(Arc::clone(&e2), 0);
            let result = catch_unwind(AssertUnwindSafe(|| b()));
            e2.op_finish(0, result.err());
        })
        .expect("failed to spawn model root thread");
    exec.explorer.park();
    let s = exec.sched.lock().unwrap();
    (s.path.clone(), s.violation.clone())
}

/// Explore bounded-exhaustive interleavings of `body`.
///
/// `body` runs on a fresh model "main" thread each execution; every
/// `ModelSync` operation inside it becomes a scheduling point. Returns
/// after the DFS is exhausted, a violation is found, or
/// [`Config::max_executions`] is reached.
pub fn explore(cfg: &Config, body: impl Fn() + Send + Sync + 'static) -> Report {
    let body: Arc<dyn Fn() + Send + Sync> = Arc::new(body);
    let mut path: Vec<PathEntry> = Vec::new();
    let mut executions = 0usize;
    loop {
        let (new_path, violation) = run_once(cfg, path, &body);
        executions += 1;
        if let Some(v) = violation {
            return Report {
                executions,
                complete: false,
                violation: Some(v),
            };
        }
        path = new_path;
        // Backtrack: drop exhausted tail entries, advance the deepest
        // unexhausted choice point.
        while let Some(last) = path.last() {
            if last.tried + 1 >= last.n {
                path.pop();
            } else {
                break;
            }
        }
        match path.last_mut() {
            Some(last) => {
                last.tried += 1;
                // Truncating above removed deeper entries; the next run
                // re-derives them from the new prefix.
            }
            None => {
                return Report {
                    executions,
                    complete: true,
                    violation: None,
                };
            }
        }
        if executions >= cfg.max_executions {
            return Report {
                executions,
                complete: false,
                violation: None,
            };
        }
    }
}
