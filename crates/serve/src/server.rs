//! The HTTP server: `mmsb-pool` workers running accept loops over a
//! shared `TcpListener`, behind the [`crate::shed`] admission layer.
//!
//! [`ServeHandle::start`] loads the checkpoint, builds the first
//! [`ModelSnapshot`], binds the listener (so the caller knows the real
//! port before the call returns — bind to port 0 for an ephemeral
//! one), and spawns a driver thread that parks a [`mmsb_pool::ThreadPool`]
//! in `run(threads, accept_loop)`: each chunk is one accept loop, so
//! `threads` connections are served concurrently. Each connection gets
//! reusable scratch (read buffer, body buffer, response buffer, and a
//! [`ReaderCache`](crate::cell::ReaderCache) onto the snapshot cell)
//! sized once at accept — steady-state request handling allocates
//! nothing.
//!
//! # Overload protection
//!
//! The listener is permanently non-blocking; idle workers poll accept
//! (1 ms), so no worker is ever parked in an unbounded syscall and
//! shutdown needs no wake-up trick (the old one-dummy-connect-per-
//! worker protocol raced a full backlog and could strand a worker).
//! Every accepted socket passes [`Admission::try_admit`]; over-cap
//! connections get the canned fast-path 503 + `Retry-After`
//! ([`http::SHED_RESPONSE`]) and a graceful close. When every serving
//! slot is busy, workers also *sweep* the backlog at request-batch
//! boundaries and shed the queued connections instead of letting them
//! starve. Per-request in-flight caps and an optional per-worker token
//! bucket answer 503/429 without dropping the connection; write
//! timeouts plus a receive deadline on partially-read requests bound
//! how long any misbehaving peer (slow-loris, never-read, dead socket,
//! connect-and-idle) can hold a worker.
//!
//! # Drain
//!
//! [`ServeHandle::drain`] is two-phase: `begin_drain` stops admission
//! (accept loops exit within one poll tick), workers answer everything
//! already buffered, flush, and close at the next request boundary
//! (counted *completed*); connections still open when the drain budget
//! expires are force-closed (counted *aborted*). The exact accounting
//! comes back in [`DrainReport`] and is published through `mmsb-obs`.

use crate::cell::SnapshotCell;
use crate::handlers;
use crate::http::{self, Parsed};
use crate::shed::{Admission, Admit, ConnClose, ConnPermit, Lifecycle, TokenBucket};
use crate::snapshot::{ModelSnapshot, SnapshotError};
use mmsb_core::Checkpoint;
use mmsb_obs::clock::Stopwatch;
use mmsb_obs::id as obs_id;
use mmsb_pool::{RealSync, ThreadPool};
use mmsb_simd::Backend;
use std::io::{Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7070`; port 0 picks an ephemeral
    /// port (read it back from [`ServeHandle::addr`]).
    pub addr: String,
    /// Worker threads (= concurrently served connections), minimum 1.
    pub threads: usize,
    /// Inter-community link probability for Eq. 7. Not stored in the
    /// checkpoint artifact — defaults to the sampler default `1e-5`.
    pub delta: f64,
    /// SIMD backend for edge queries.
    pub backend: Backend,
    /// `k` used by membership queries that omit `?k=`.
    pub default_k: usize,
    /// Maximum concurrently admitted connections; `0` = auto
    /// (= `threads`, one per serving slot). Connections over the cap
    /// get the fast-path 503 + `Retry-After`.
    pub max_conns: usize,
    /// Maximum concurrently processed requests; `0` = auto
    /// (= `threads`). Requests over the cap are answered 503 +
    /// `Retry-After` without closing the connection.
    pub max_inflight: usize,
    /// Per-connection I/O deadline in milliseconds: bounds every
    /// response write, and bounds how long a *partially received*
    /// request (or a fresh connection that has not completed its first
    /// request) may dawdle before the connection is closed with 408.
    /// Idle established keep-alive connections are exempt.
    pub deadline_ms: u64,
    /// Graceful-drain budget in milliseconds: how long
    /// [`ServeHandle::shutdown`] waits for open connections to finish
    /// before force-closing them.
    pub drain_ms: u64,
    /// Requests served on one keep-alive connection before the server
    /// closes it (after responding) so queued connections get a turn;
    /// `0` = unlimited. This is the head-of-line starvation bound.
    pub keepalive_budget: u64,
    /// Per-worker token-bucket rate limit in requests/second (burst =
    /// one second's worth); `0` = off. Over-rate requests are answered
    /// 429 + `Retry-After`. The global limit is `rate_limit × threads`.
    pub rate_limit: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            delta: 1e-5,
            backend: Backend::detect(),
            default_k: 5,
            max_conns: 0,
            max_inflight: 0,
            deadline_ms: 5_000,
            drain_ms: 2_000,
            keepalive_budget: 0,
            rate_limit: 0,
        }
    }
}

/// Why the server could not start or reload.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The checkpoint failed to load or verify.
    Checkpoint(String),
    /// The checkpoint loaded but is not servable.
    Snapshot(SnapshotError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io: {e}"),
            ServeError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            ServeError::Snapshot(e) => write!(f, "snapshot: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// State shared by every worker and the reload path.
pub(crate) struct ServerShared {
    /// The published model.
    pub(crate) cell: SnapshotCell<ModelSnapshot>,
    /// Where [`ServerShared::reload`] re-reads the checkpoint from.
    model_path: Mutex<PathBuf>,
    delta: f64,
    backend: Backend,
    pub(crate) default_k: usize,
    /// Admission / drain accounting shared by every worker.
    pub(crate) adm: Admission,
    /// Serving slots; the sweep sheds when this many conns are open.
    threads: usize,
    /// Response-write timeout and partial-request receive deadline.
    deadline: Duration,
    deadline_ns: u64,
    keepalive_budget: u64,
    rate_limit: u64,
}

impl ServerShared {
    /// Re-read the checkpoint file and publish a fresh snapshot;
    /// returns the new generation. In-flight queries keep their old
    /// snapshot until their next request boundary. On *any* failure
    /// the old generation keeps serving and `serve_reload_errors` is
    /// bumped.
    pub(crate) fn reload(&self) -> Result<usize, ServeError> {
        match self.reload_inner() {
            Ok(generation) => {
                mmsb_obs::counter_add(obs_id::C_SERVE_RELOADS, 1);
                Ok(generation)
            }
            Err(e) => {
                mmsb_obs::counter_add(obs_id::C_SERVE_RELOAD_ERRORS, 1);
                Err(e)
            }
        }
    }

    fn reload_inner(&self) -> Result<usize, ServeError> {
        let path = self.model_path.lock().expect("model path lock").clone();
        let snap = load_snapshot(&path, self.delta, self.backend)?;
        Ok(self.cell.publish(Arc::new(snap)))
    }
}

/// Load and verify the checkpoint at `path` and build its snapshot.
/// The checkpoint is dropped before this returns, so its planes are
/// never resident beside a published snapshot.
fn load_snapshot(path: &Path, delta: f64, backend: Backend) -> Result<ModelSnapshot, ServeError> {
    let ckpt = Checkpoint::load(path).map_err(|e| ServeError::Checkpoint(e.to_string()))?;
    ModelSnapshot::from_checkpoint(&ckpt, delta, backend).map_err(ServeError::Snapshot)
}

/// Exact accounting from a two-phase drain.
#[derive(Debug, Clone, Copy, Default)]
pub struct DrainReport {
    /// Connections that closed cleanly at a request boundary.
    pub completed: u64,
    /// Connections force-closed when the drain budget expired.
    pub aborted: u64,
    /// Whether phase two (force-close) had anything left to do.
    pub forced: bool,
    /// Wall-clock milliseconds the drain took.
    pub elapsed_ms: u64,
}

/// Point-in-time overload counters, for tests and benches (the same
/// numbers are exported as `serve_*` metrics through `mmsb-obs`).
#[derive(Debug, Clone, Copy, Default)]
pub struct OverloadStats {
    /// Connections ever admitted.
    pub admitted: usize,
    /// Connections refused with the fast-path 503.
    pub shed_conns: usize,
    /// Requests refused 503 at the in-flight cap.
    pub shed_requests: usize,
    /// Drain accounting so far: connections closed cleanly.
    pub drain_completed: usize,
    /// Drain accounting so far: connections force-closed.
    pub drain_aborted: usize,
}

/// A running server. Dropping the handle drains and shuts down.
pub struct ServeHandle {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    threads: usize,
    drain_ms: u64,
    driver: Option<std::thread::JoinHandle<()>>,
}

impl ServeHandle {
    /// Load the checkpoint at `model_path`, bind `cfg.addr`, and start
    /// serving. Returns once the socket is bound and the first
    /// snapshot is published — queries may be sent immediately.
    pub fn start(model_path: &Path, cfg: &ServeConfig) -> Result<Self, ServeError> {
        let snap = load_snapshot(model_path, cfg.delta, cfg.backend)?;
        let listener = TcpListener::bind(&cfg.addr)?;
        // Permanently non-blocking: workers poll accept when idle, so
        // no thread is ever parked in an unbounded syscall and drain
        // needs no wake-up protocol.
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let threads = cfg.threads.max(1);
        let max_conns = if cfg.max_conns == 0 { threads } else { cfg.max_conns };
        let max_inflight = if cfg.max_inflight == 0 { threads } else { cfg.max_inflight };
        let deadline_ms = cfg.deadline_ms.max(1);
        let shared = Arc::new(ServerShared {
            cell: SnapshotCell::new(Arc::new(snap)),
            model_path: Mutex::new(model_path.to_path_buf()),
            delta: cfg.delta,
            backend: cfg.backend,
            default_k: cfg.default_k,
            adm: Admission::new(max_conns, max_inflight),
            threads,
            deadline: Duration::from_millis(deadline_ms),
            deadline_ns: deadline_ms.saturating_mul(1_000_000),
            keepalive_budget: cfg.keepalive_budget,
            rate_limit: cfg.rate_limit,
        });
        let worker_shared = Arc::clone(&shared);
        let driver = std::thread::Builder::new()
            .name("mmsb-serve-driver".to_string())
            .spawn(move || {
                let pool = ThreadPool::new(threads);
                pool.run(threads, |_worker, _chunk| {
                    accept_loop(&listener, &worker_shared);
                });
            })?;
        Ok(Self {
            addr,
            shared,
            threads,
            drain_ms: cfg.drain_ms,
            driver: Some(driver),
        })
    }

    /// The bound address (the real port when `cfg.addr` asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Generation of the currently published snapshot.
    pub fn generation(&self) -> usize {
        self.shared.cell.generation()
    }

    /// Reload the checkpoint file and publish a new snapshot (the
    /// in-process equivalent of `POST /v1/reload`); returns the new
    /// generation.
    pub fn reload(&self) -> Result<usize, ServeError> {
        self.shared.reload()
    }

    /// Current overload counters.
    pub fn overload_stats(&self) -> OverloadStats {
        let (admitted, _released, shed_conns, shed_requests) = self.shared.adm.totals();
        let (drain_completed, drain_aborted) = self.shared.adm.drain_counts();
        OverloadStats {
            admitted,
            shed_conns,
            shed_requests,
            drain_completed,
            drain_aborted,
        }
    }

    /// Connections currently holding an admission slot.
    pub fn conns_open(&self) -> usize {
        self.shared.adm.conns()
    }

    /// Two-phase graceful drain with an explicit budget: stop
    /// accepting, let open connections finish (bounded by `drain_ms`),
    /// force-close stragglers, join the workers, and report the exact
    /// completed/aborted split.
    pub fn drain(mut self, drain_ms: u64) -> DrainReport {
        self.drain_impl(drain_ms)
    }

    /// Drain with the configured `drain_ms` budget and shut down.
    pub fn shutdown(mut self) {
        let budget = self.drain_ms;
        self.drain_impl(budget);
    }

    fn drain_impl(&mut self, drain_ms: u64) -> DrainReport {
        let Some(driver) = self.driver.take() else {
            return DrainReport::default();
        };
        let sw = Stopwatch::start();
        // Phase one: stop admitting. Accept loops exit within one poll
        // tick; serving workers flush buffered work and close at the
        // next request boundary.
        self.shared.adm.begin_drain();
        let budget_ns = drain_ms.saturating_mul(1_000_000);
        while !self.shared.adm.quiescent() && sw.elapsed_ns() < budget_ns {
            std::thread::sleep(Duration::from_millis(1));
        }
        let forced = !self.shared.adm.quiescent();
        // Phase two: stragglers abandon their connection at the next
        // I/O boundary (reads time out every 50 ms, writes at the
        // deadline), so the join below is bounded.
        self.shared.adm.force_close();
        let _ = driver.join();
        let (completed, aborted) = self.shared.adm.drain_counts();
        mmsb_obs::gauge_set(obs_id::G_SERVE_CONNS_OPEN, 0);
        DrainReport {
            completed: completed as u64,
            aborted: aborted as u64,
            forced,
            elapsed_ms: sw.elapsed_ns() / 1_000_000,
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        let budget = self.drain_ms;
        self.drain_impl(budget);
    }
}

impl std::fmt::Debug for ServeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeHandle")
            .field("addr", &self.addr)
            .field("threads", &self.threads)
            .field("generation", &self.generation())
            .finish()
    }
}

/// Read-buffer size per connection: must exceed the largest accepted
/// request (head + body), or a pathological client could wedge the
/// parser with a buffer that is full yet incomplete.
const READ_BUF: usize = http::MAX_HEAD_BYTES + http::MAX_BODY_BYTES + 4096;
/// How often a worker blocked in `read` re-checks the lifecycle and
/// the receive deadline.
const READ_TIMEOUT: Duration = Duration::from_millis(50);
/// Idle accept-poll interval; also bounds how fast accept loops
/// observe a drain.
const ACCEPT_POLL: Duration = Duration::from_millis(1);
/// Most queued connections one busy worker sheds per batch boundary —
/// bounds the latency the sweep adds to accepted requests.
const SWEEP_MAX: usize = 8;

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    let mut bucket = TokenBucket::new(shared.rate_limit);
    loop {
        if shared.adm.lifecycle() != Lifecycle::Accepting {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => match shared.adm.try_admit() {
                Admit::Admitted(permit) => {
                    mmsb_obs::counter_add(obs_id::C_SERVE_CONNS, 1);
                    serve_connection(stream, shared, permit, listener, &mut bucket);
                }
                Admit::Shed => shed_conn(stream),
                // A drain began since the last lifecycle check: the
                // socket is dropped unserved and the loop exits.
                Admit::Draining => return,
            },
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            // Transient accept errors (e.g. the peer aborted between
            // SYN and accept) should not kill the worker.
            Err(_) => std::thread::yield_now(),
        }
    }
}

/// Write the canned fast-path 503 to a connection that never got an
/// admission slot, then close gracefully.
fn shed_conn(mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(50)));
    let _ = stream.write_all(http::SHED_RESPONSE);
    graceful_close(&stream);
    mmsb_obs::counter_add(obs_id::C_SERVE_SHED_CONNS, 1);
}

/// Shed kernel-queued connections while every serving slot is busy, so
/// they get a prompt 503 instead of starving in the backlog.
fn sweep_shed(listener: &TcpListener, shared: &ServerShared) {
    for _ in 0..SWEEP_MAX {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.adm.count_shed_conn();
                shed_conn(stream);
            }
            Err(_) => return,
        }
    }
}

/// Half-close, then briefly drain the receive side so the peer's
/// unread bytes cannot turn our close into an RST that destroys the
/// response we just wrote.
fn graceful_close(stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(5)));
    let mut sink = [0u8; 1024];
    let mut reader = stream;
    for _ in 0..4 {
        match reader.read(&mut sink) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

/// Outcome for a connection ending on an error/EOF path right now:
/// normally a plain close, but once phase two of a drain has begun
/// every straggler counts as drain-aborted.
fn end_outcome(shared: &ServerShared) -> ConnClose {
    if shared.adm.lifecycle() == Lifecycle::Closed {
        ConnClose::DrainAborted
    } else {
        ConnClose::Normal
    }
}

/// Release the connection's admission slot, recording the outcome.
fn close_conn(shared: &ServerShared, permit: ConnPermit<'_, RealSync>, how: ConnClose) {
    match how {
        ConnClose::Normal => {}
        ConnClose::DrainCompleted => {
            mmsb_obs::counter_add(obs_id::C_SERVE_DRAIN_COMPLETED, 1)
        }
        ConnClose::DrainAborted => mmsb_obs::counter_add(obs_id::C_SERVE_DRAIN_ABORTED, 1),
    }
    permit.close(how);
    mmsb_obs::gauge_set(obs_id::G_SERVE_CONNS_OPEN, shared.adm.conns() as u64);
}

/// Serve one admitted connection until it closes, errors, hits its
/// deadline or budget, or a drain ends it.
///
/// All scratch is allocated here, once: requests are parsed in place
/// from `rbuf`, every buffered (pipelined) request is handled, and the
/// batch of responses goes out in a single write.
fn serve_connection(
    mut stream: TcpStream,
    shared: &ServerShared,
    permit: ConnPermit<'_, RealSync>,
    listener: &TcpListener,
    bucket: &mut TokenBucket,
) {
    mmsb_obs::gauge_set(obs_id::G_SERVE_CONNS_OPEN, shared.adm.conns() as u64);
    if stream.set_nodelay(true).is_err()
        || stream.set_read_timeout(Some(READ_TIMEOUT)).is_err()
        || stream.set_write_timeout(Some(shared.deadline)).is_err()
    {
        return close_conn(shared, permit, ConnClose::Normal);
    }
    let mut cache = shared.cell.reader();
    let mut rbuf = vec![0u8; READ_BUF];
    let mut filled = 0usize;
    let mut body = Vec::with_capacity(16 * 1024);
    let mut out = Vec::with_capacity(64 * 1024);
    let mut served: u64 = 0;
    // Armed while a request is partially received (or the connection
    // has yet to complete its first request); `None` on idle
    // established keep-alive connections, which may idle freely.
    let mut pending: Option<Stopwatch> = None;

    loop {
        // Drain every complete request currently buffered.
        let mut consumed_total = 0;
        let mut close = false;
        out.clear();
        loop {
            match http::parse_request(&rbuf[consumed_total..filled]) {
                Parsed::Complete { request, consumed } => {
                    consumed_total += consumed;
                    pending = None;
                    served += 1;
                    if !bucket.try_take() {
                        http::write_response_retry_after(
                            &mut out,
                            429,
                            1,
                            "application/json",
                            b"{\"error\":\"rate limited\"}",
                        );
                        mmsb_obs::counter_add(obs_id::C_SERVE_RATE_LIMITED, 1);
                        mmsb_obs::counter_add(obs_id::C_SERVE_REQUESTS, 1);
                        mmsb_obs::counter_add(obs_id::C_SERVE_ERRORS, 1);
                        if !request.keep_alive {
                            close = true;
                            break;
                        }
                        continue;
                    }
                    match shared.adm.begin_request() {
                        Some(req_permit) => {
                            let keep =
                                handlers::handle(shared, &mut cache, &request, &mut body, &mut out);
                            drop(req_permit);
                            mmsb_obs::gauge_set(
                                obs_id::G_SERVE_INFLIGHT,
                                shared.adm.inflight() as u64,
                            );
                            if !keep {
                                close = true;
                                break;
                            }
                        }
                        None => {
                            // Over the in-flight cap: shed the request,
                            // keep the connection.
                            http::write_response_retry_after(
                                &mut out,
                                503,
                                1,
                                "application/json",
                                b"{\"error\":\"over capacity\"}",
                            );
                            mmsb_obs::counter_add(obs_id::C_SERVE_SHED_REQUESTS, 1);
                            mmsb_obs::counter_add(obs_id::C_SERVE_REQUESTS, 1);
                            mmsb_obs::counter_add(obs_id::C_SERVE_ERRORS, 1);
                            if !request.keep_alive {
                                close = true;
                                break;
                            }
                        }
                    }
                }
                Parsed::Incomplete => break,
                Parsed::Malformed => {
                    http::write_response(
                        &mut out,
                        400,
                        "application/json",
                        b"{\"error\":\"malformed request\"}",
                    );
                    mmsb_obs::counter_add(obs_id::C_SERVE_REQUESTS, 1);
                    mmsb_obs::counter_add(obs_id::C_SERVE_ERRORS, 1);
                    close = true;
                    break;
                }
                Parsed::HeadTooLarge => {
                    http::write_response(
                        &mut out,
                        431,
                        "application/json",
                        b"{\"error\":\"request head too large\"}",
                    );
                    mmsb_obs::counter_add(obs_id::C_SERVE_REQUESTS, 1);
                    mmsb_obs::counter_add(obs_id::C_SERVE_ERRORS, 1);
                    close = true;
                    break;
                }
                Parsed::BodyTooLarge => {
                    http::write_response(
                        &mut out,
                        413,
                        "application/json",
                        b"{\"error\":\"request body too large\"}",
                    );
                    mmsb_obs::counter_add(obs_id::C_SERVE_REQUESTS, 1);
                    mmsb_obs::counter_add(obs_id::C_SERVE_ERRORS, 1);
                    close = true;
                    break;
                }
            }
        }
        if consumed_total > 0 {
            rbuf.copy_within(consumed_total..filled, 0);
            filled -= consumed_total;
        }
        if shared.keepalive_budget > 0 && served >= shared.keepalive_budget {
            // Budget spent: close after responding so queued
            // connections get this slot.
            close = true;
        }

        let life = shared.adm.lifecycle();
        if life == Lifecycle::Closed {
            // Phase two of a drain: abandon the connection now, even
            // if responses are staged — the budget already expired.
            return close_conn(shared, permit, ConnClose::DrainAborted);
        }
        if !out.is_empty() && stream.write_all(&out).is_err() {
            // Slow/never-reading peer or dead socket: the write
            // deadline fired (or the connection broke).
            mmsb_obs::counter_add(obs_id::C_SERVE_DEADLINE_CLOSES, 1);
            return close_conn(shared, permit, end_outcome(shared));
        }
        if close {
            graceful_close(&stream);
            // A fully answered close during phase one still counts as
            // a clean drain completion.
            let how = if life == Lifecycle::Draining {
                ConnClose::DrainCompleted
            } else {
                ConnClose::Normal
            };
            return close_conn(shared, permit, how);
        }
        if life == Lifecycle::Draining {
            // Phase one: everything buffered has been answered and
            // flushed — close cleanly at the request boundary.
            graceful_close(&stream);
            return close_conn(shared, permit, ConnClose::DrainCompleted);
        }

        // Receive deadline: a half-sent request (slow-loris) or a
        // connection that never completed its first request may not
        // dawdle past the deadline.
        if filled > 0 || served == 0 {
            let sw = pending.get_or_insert_with(Stopwatch::start);
            if sw.elapsed_ns() >= shared.deadline_ns {
                let _ = stream.write_all(http::TIMEOUT_RESPONSE);
                mmsb_obs::counter_add(obs_id::C_SERVE_DEADLINE_CLOSES, 1);
                return close_conn(shared, permit, end_outcome(shared));
            }
        } else {
            pending = None;
        }

        match stream.read(&mut rbuf[filled..]) {
            Ok(0) => {
                // Peer closed (or rbuf full: give up).
                return close_conn(shared, permit, end_outcome(shared));
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                // Read timeout: loop to re-check lifecycle + deadline.
            }
            Err(_) => return close_conn(shared, permit, end_outcome(shared)),
        }

        // Every serving slot busy → give queued connections a prompt
        // 503 instead of backlog starvation. Deliberately *after* the
        // read: a dead peer must free this slot (EOF path above), not
        // shed the successor connection that replaced it — shed only
        // once this connection is known alive or merely idle.
        if shared.adm.saturated(shared.threads) {
            sweep_shed(listener, shared);
        }
    }
}
