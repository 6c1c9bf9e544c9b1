//! In-process load generation against a running server.
//!
//! Two modes, matching the two numbers a serving layer is judged by:
//!
//! * [`throughput`] — keep-alive + pipelining: batches of `depth`
//!   requests go out in one write, responses are drained and counted.
//!   This measures the server's sustainable queries/sec without the
//!   client's per-request round-trip dominating.
//! * [`latency`] — strictly serial request → response pairs, one
//!   [`mmsb_obs::clock::Stopwatch`] sample each, reported as sorted
//!   quantiles. This measures what a synchronous caller experiences.
//!
//! Lives in `mmsb-serve` (not `mmsb-bench`) so the workspace's
//! net-confinement lint keeps every `std::net` user in this crate;
//! `bench_serve` drives these functions through their public API.
//!
//! Beyond the two well-behaved modes, this module is the adversarial
//! side of the overload story:
//!
//! * [`chaos`] — deterministic, seeded misbehaving clients
//!   ([`ChaosKind`]): slow-loris header trickle, half-close, never-read
//!   response sinks, garbage bytes, oversized heads, connect-and-idle.
//!   Each client records whether the server disposed of it within a
//!   budget — the server must never let one pin a worker.
//! * [`overload`] — N client threads hammering serially at a server
//!   provisioned for fewer, measuring the split between completed
//!   (200), shed (503/429), and errored exchanges plus the latency
//!   quantiles of the *accepted* requests. `bench_serve` drives this at
//!   4× capacity and gates on bounded accepted-p99.
//! * [`connect_flood`] — open-and-hold raw connections, for the
//!   shutdown-under-flood regression test.

use crate::http;
use mmsb_obs::clock::Stopwatch;
use mmsb_rand::{Rng as _, RngCore as _, Xoshiro256PlusPlus};
use std::io::{Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

/// Result of a [`throughput`] run.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputReport {
    /// Requests completed.
    pub requests: u64,
    /// Responses with a non-200 status.
    pub errors: u64,
    /// Wall time for the whole run.
    pub elapsed_ns: u64,
    /// Completed requests per second.
    pub qps: f64,
    /// Mean nanoseconds per request.
    pub ns_per_request: u64,
}

/// Result of a [`latency`] run (client-observed round-trip times).
#[derive(Debug, Clone, Copy)]
pub struct LatencyReport {
    /// Round trips sampled.
    pub samples: u64,
    /// Responses with a non-200 status.
    pub errors: u64,
    /// Median round-trip nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile round-trip nanoseconds.
    pub p99_ns: u64,
    /// Fastest round trip.
    pub min_ns: u64,
    /// Slowest round trip.
    pub max_ns: u64,
}

/// Render a keep-alive GET for `path` as raw request bytes.
pub fn get_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\n\r\n").into_bytes()
}

/// Render a keep-alive POST (empty body) for `path`.
pub fn post_request(path: &str) -> Vec<u8> {
    format!("POST {path} HTTP/1.1\r\nContent-Length: 0\r\n\r\n").into_bytes()
}

/// Drive `total` requests (cycling through `requests`) over one
/// keep-alive connection, `depth` requests in flight per batch.
pub fn throughput(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    total: usize,
    depth: usize,
) -> std::io::Result<ThroughputReport> {
    assert!(!requests.is_empty() && depth > 0);
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut batch = Vec::with_capacity(depth * 64);
    let mut resp = vec![0u8; 256 * 1024];
    let mut filled = 0usize;
    let mut next = 0usize;
    let mut done = 0u64;
    let mut errors = 0u64;

    let sw = Stopwatch::start();
    let mut remaining = total;
    while remaining > 0 {
        let burst = remaining.min(depth);
        batch.clear();
        for _ in 0..burst {
            batch.extend_from_slice(&requests[next]);
            next = (next + 1) % requests.len();
        }
        stream.write_all(&batch)?;

        let mut pending = burst;
        while pending > 0 {
            // Consume every complete response in the buffer.
            let mut consumed = 0;
            while pending > 0 {
                match http::parse_response(&resp[consumed..filled]) {
                    Some((status, len)) => {
                        if status != 200 {
                            errors += 1;
                        }
                        consumed += len;
                        pending -= 1;
                        done += 1;
                    }
                    None => break,
                }
            }
            if consumed > 0 {
                resp.copy_within(consumed..filled, 0);
                filled -= consumed;
            }
            if pending == 0 {
                break;
            }
            let n = stream.read(&mut resp[filled..])?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed mid-batch",
                ));
            }
            filled += n;
        }
        remaining -= burst;
    }
    let elapsed_ns = sw.elapsed_ns().max(1);
    Ok(ThroughputReport {
        requests: done,
        errors,
        elapsed_ns,
        qps: done as f64 / (elapsed_ns as f64 / 1e9),
        ns_per_request: elapsed_ns / done.max(1),
    })
}

/// Sample `samples` strictly-serial round trips (cycling through
/// `requests`) over one keep-alive connection.
pub fn latency(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    samples: usize,
) -> std::io::Result<LatencyReport> {
    assert!(!requests.is_empty() && samples > 0);
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut resp = vec![0u8; 256 * 1024];
    let mut times = Vec::with_capacity(samples);
    let mut errors = 0u64;
    for i in 0..samples {
        let sw = Stopwatch::start();
        stream.write_all(&requests[i % requests.len()])?;
        let mut filled = 0usize;
        let (status, _len) = loop {
            let n = stream.read(&mut resp[filled..])?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ));
            }
            filled += n;
            if let Some(parsed) = http::parse_response(&resp[..filled]) {
                break parsed;
            }
        };
        times.push(sw.elapsed_ns());
        if status != 200 {
            errors += 1;
        }
    }
    times.sort_unstable();
    let q = |p: f64| times[((times.len() - 1) as f64 * p).round() as usize];
    Ok(LatencyReport {
        samples: times.len() as u64,
        errors,
        p50_ns: q(0.50),
        p99_ns: q(0.99),
        min_ns: times[0],
        max_ns: *times.last().unwrap(),
    })
}

/// One species of misbehaving client for [`chaos`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// Sends a request head one byte at a time, forever.
    SlowLoris,
    /// Sends half a request, then shuts down its write side.
    HalfClose,
    /// Pipelines requests with large responses and never reads a byte,
    /// so the server's response writes eventually block.
    NeverRead,
    /// Sends seeded random bytes (with header terminators mixed in, so
    /// the parser sees them as malformed rather than incomplete).
    GarbageBytes,
    /// Sends an unterminated request head larger than
    /// [`http::MAX_HEAD_BYTES`].
    OversizedHead,
    /// Connects and sends nothing at all.
    ConnectIdle,
}

/// Every [`ChaosKind`], for suites that sweep them all.
pub const ALL_CHAOS: [ChaosKind; 6] = [
    ChaosKind::SlowLoris,
    ChaosKind::HalfClose,
    ChaosKind::NeverRead,
    ChaosKind::GarbageBytes,
    ChaosKind::OversizedHead,
    ChaosKind::ConnectIdle,
];

/// Outcome of a [`chaos`] run.
#[derive(Debug, Default, Clone, Copy)]
pub struct ChaosReport {
    /// Clients that connected.
    pub clients: u64,
    /// Clients whose connection the server terminated within budget —
    /// the success condition: no misbehaving client may pin a worker.
    pub server_closed: u64,
    /// Clients still holding an open connection when their budget
    /// expired (server failure).
    pub stuck: u64,
    /// Clients that could not connect at all (e.g. shed at accept).
    pub refused: u64,
}

/// Discard-read until the server closes (clean EOF or reset) or
/// `budget_ms` passes; true iff the server ended the connection.
fn wait_for_close(stream: &TcpStream, budget_ms: u64) -> bool {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
    let sw = Stopwatch::start();
    let mut sink = [0u8; 4096];
    let mut reader = stream;
    while sw.elapsed_ns() < budget_ms.saturating_mul(1_000_000) {
        match reader.read(&mut sink) {
            Ok(0) => return true,
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            // Reset / broken pipe: the server tore the connection down.
            Err(_) => return true,
        }
    }
    false
}

fn run_chaos_client(
    addr: SocketAddr,
    kind: ChaosKind,
    rng: &mut Xoshiro256PlusPlus,
    budget_ms: u64,
) -> Option<bool> {
    let mut stream = TcpStream::connect(addr).ok()?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(50)));
    let budget_ns = budget_ms.saturating_mul(1_000_000);
    match kind {
        ChaosKind::SlowLoris => {
            let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\nX-Drip: ");
            let sw = Stopwatch::start();
            while sw.elapsed_ns() < budget_ns {
                let byte = [b'a' + (rng.below(26)) as u8];
                if stream.write_all(&byte).is_err() {
                    return Some(true); // server already tore us down
                }
                std::thread::sleep(Duration::from_millis(2));
                // Interleave reads so the server's 408 + close is seen
                // promptly instead of only after the write side fails.
                let _ = stream.set_read_timeout(Some(Duration::from_millis(1)));
                let mut sink = [0u8; 512];
                match (&stream).read(&mut sink) {
                    Ok(0) => return Some(true),
                    Ok(_) => {}
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) => {}
                    Err(_) => return Some(true),
                }
            }
            Some(false)
        }
        ChaosKind::HalfClose => {
            let _ = stream.write_all(b"GET /healthz HTT");
            let _ = stream.shutdown(Shutdown::Write);
            Some(wait_for_close(&stream, budget_ms))
        }
        ChaosKind::NeverRead => {
            // Large responses (full community listing) so the socket
            // buffers fill and the server's write deadline must fire.
            let req = get_request("/v1/community/0?min_weight=0");
            let mut batch = Vec::with_capacity(req.len() * 64);
            for _ in 0..64 {
                batch.extend_from_slice(&req);
            }
            let sw = Stopwatch::start();
            while sw.elapsed_ns() < budget_ns {
                match stream.write_all(&batch) {
                    Ok(()) => std::thread::sleep(Duration::from_millis(2)),
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        // Our own send buffer is full (server stalled on
                        // its write): keep waiting for the teardown.
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => return Some(true),
                }
            }
            Some(false)
        }
        ChaosKind::GarbageBytes => {
            for _ in 0..4 {
                let mut junk = [0u8; 512];
                for b in junk.iter_mut() {
                    *b = rng.next_u64() as u8;
                }
                if stream.write_all(&junk).is_err() {
                    return Some(true);
                }
                if stream.write_all(b"\r\n\r\n").is_err() {
                    return Some(true);
                }
            }
            Some(wait_for_close(&stream, budget_ms))
        }
        ChaosKind::OversizedHead => {
            let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\n");
            let line = b"X-Padding-Header: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n";
            let lines = http::MAX_HEAD_BYTES / line.len() + 2;
            for _ in 0..lines {
                if stream.write_all(line).is_err() {
                    return Some(true);
                }
            }
            Some(wait_for_close(&stream, budget_ms))
        }
        ChaosKind::ConnectIdle => Some(wait_for_close(&stream, budget_ms)),
    }
}

/// Run `clients` misbehaving clients of one [`ChaosKind`] serially
/// against `addr`, each allowed `budget_ms` for the server to dispose
/// of it. Fully deterministic for a given `seed` (modulo kernel
/// timing); the server under test should be configured with a deadline
/// comfortably inside `budget_ms`.
pub fn chaos(
    addr: SocketAddr,
    kind: ChaosKind,
    clients: usize,
    seed: u64,
    budget_ms: u64,
) -> ChaosReport {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let mut report = ChaosReport::default();
    for _ in 0..clients {
        match run_chaos_client(addr, kind, &mut rng, budget_ms) {
            None => report.refused += 1,
            Some(closed) => {
                report.clients += 1;
                if closed {
                    report.server_closed += 1;
                } else {
                    report.stuck += 1;
                }
            }
        }
    }
    report
}

/// Open `conns` connections and hold them all open, then drop them.
/// Returns how many connected. Used to reproduce the old
/// shutdown-wake-up race: shutdown must complete promptly even with
/// the listener backlog full.
pub fn connect_flood(addr: SocketAddr, conns: usize) -> usize {
    let mut held = Vec::with_capacity(conns);
    for _ in 0..conns {
        if let Ok(s) = TcpStream::connect(addr) {
            held.push(s);
        }
    }
    held.len()
}

/// Outcome of an [`overload`] run.
#[derive(Debug, Default, Clone, Copy)]
pub struct OverloadReport {
    /// Exchanges that completed with HTTP 200.
    pub completed: u64,
    /// Exchanges shed by the server (503 or 429).
    pub shed: u64,
    /// Exchanges ended by a connection error (reset, unexpected EOF).
    pub io_errors: u64,
    /// Responses that did not parse as HTTP at all — must stay zero;
    /// overload may shed but never corrupt.
    pub malformed: u64,
    /// Median latency of the *completed* exchanges, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile latency of the completed exchanges.
    pub p99_ns: u64,
}

/// One serial exchange on `stream`; classifies the outcome into
/// `report` and returns whether the connection is still usable.
fn overload_exchange(
    stream: &mut TcpStream,
    request: &[u8],
    resp: &mut [u8],
    report: &mut OverloadReport,
    times: &mut Vec<u64>,
) -> bool {
    let sw = Stopwatch::start();
    if stream.write_all(request).is_err() {
        report.io_errors += 1;
        return false;
    }
    let mut filled = 0usize;
    loop {
        match stream.read(&mut resp[filled..]) {
            Ok(0) => {
                // Closed before a full response: if we already hold a
                // complete parseable prefix we'd have returned; a bare
                // close mid-exchange is an io error unless zero bytes
                // arrived *and* the server is shedding at accept (the
                // fast-path 503 always arrives before the close).
                report.io_errors += 1;
                return false;
            }
            Ok(n) => filled += n,
            Err(_) => {
                report.io_errors += 1;
                return false;
            }
        }
        if let Some((status, len)) = http::parse_response(&resp[..filled]) {
            match status {
                200 => {
                    report.completed += 1;
                    times.push(sw.elapsed_ns());
                }
                503 | 429 => report.shed += 1,
                _ => report.malformed += 1,
            }
            // The fast-path shed response closes the connection.
            return len == filled && status == 200;
        }
        if filled == resp.len() {
            report.malformed += 1;
            return false;
        }
    }
}

/// Hammer `addr` from `clients` threads, each running
/// `exchanges_per_client` strictly serial request→response exchanges,
/// reconnecting whenever the server closes on them (shed or error).
/// Size `clients` well above the server's serving capacity to create
/// sustained overload; the report splits completed/shed/errored and
/// gives latency quantiles for the accepted requests only.
pub fn overload(
    addr: SocketAddr,
    clients: usize,
    exchanges_per_client: usize,
    path: &str,
) -> OverloadReport {
    let request = get_request(path);
    let mut merged = OverloadReport::default();
    let mut all_times: Vec<u64> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(clients);
        for _ in 0..clients {
            let request = &request;
            handles.push(scope.spawn(move || {
                let mut report = OverloadReport::default();
                let mut times = Vec::with_capacity(exchanges_per_client);
                let mut resp = vec![0u8; 256 * 1024];
                let mut stream: Option<TcpStream> = None;
                for _ in 0..exchanges_per_client {
                    let s = match stream.as_mut() {
                        Some(s) => s,
                        None => match TcpStream::connect(addr) {
                            Ok(s) => {
                                let _ = s.set_nodelay(true);
                                let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
                                stream.insert(s)
                            }
                            Err(_) => {
                                report.io_errors += 1;
                                continue;
                            }
                        },
                    };
                    if !overload_exchange(s, request, &mut resp, &mut report, &mut times) {
                        stream = None;
                    }
                }
                (report, times)
            }));
        }
        for handle in handles {
            if let Ok((report, times)) = handle.join() {
                merged.completed += report.completed;
                merged.shed += report.shed;
                merged.io_errors += report.io_errors;
                merged.malformed += report.malformed;
                all_times.extend_from_slice(&times);
            }
        }
    });
    if !all_times.is_empty() {
        all_times.sort_unstable();
        let q = |p: f64| all_times[((all_times.len() - 1) as f64 * p).round() as usize];
        merged.p50_ns = q(0.50);
        merged.p99_ns = q(0.99);
    }
    merged
}
