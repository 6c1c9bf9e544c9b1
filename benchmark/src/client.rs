//! The benchmark's HTTP client: one keep-alive connection on a non-blocking
//! socket, polled for both directions by the thread that owns it.
//!
//! One loop serves both pacings. A *closed loop* keeps a window of requests
//! in flight and sends the next ones only as responses arrive, so a slow
//! server receives less load. An *open loop* sends on a fixed timeline
//! whatever the server does, times each request from the moment it was due,
//! and reports how late the generator itself ran. Polling instead of
//! blocking keeps the client awake, so what is measured is the server and
//! the socket, not how fast the host wakes a sleeping client thread.

use crate::adapter;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How requests are released.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Closed loop: up to `depth` requests in flight; topped up to `depth`
    /// whenever half of them have been answered (`depth` 1 is strictly
    /// serial).
    Window { depth: usize },
    /// Open loop: request `i` is due `i / rate` seconds after the start.
    Timeline { rate: f64 },
}

/// What one [`Client::drive`] call observed.
#[derive(Debug, Default)]
pub struct Driven {
    /// Responses that were not a well-formed 200.
    pub bad: u64,
    pub seconds: f64,
    /// Per request, microseconds from its due time (open loop) or from being
    /// queued (closed loop) to its complete response. Empty unless asked for.
    pub latency_us: Vec<f64>,
    /// Open loop only: microseconds from a request's due time until its last
    /// byte was handed to the socket.
    pub late_us: Vec<f64>,
}

/// What to keep from a drive besides the counts.
#[derive(Default)]
pub struct Keep<'a> {
    pub latencies: bool,
    pub bodies: Option<&'a mut Vec<Vec<u8>>>,
}

impl<'a> Keep<'a> {
    pub fn latencies() -> Self {
        Keep {
            latencies: true,
            bodies: None,
        }
    }

    pub fn bodies(sink: &'a mut Vec<Vec<u8>>) -> Self {
        Keep {
            latencies: false,
            bodies: Some(sink),
        }
    }
}

pub struct Client {
    stream: TcpStream,
    inbox: Vec<u8>,
    filled: usize,
    outbox: Vec<u8>,
}

fn body_of(response: &[u8]) -> &[u8] {
    let head_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(response.len(), |p| p + 4);
    &response[head_end..]
}

impl Client {
    /// Connect and make sure the server has admitted the connection: just
    /// after another connection closed, the server may not have released its
    /// slot yet and sheds the newcomer with a 503; then try again.
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let probe = [adapter::get_request("/healthz")];
        let start = Instant::now();
        loop {
            let attempt = Self::connect_once(addr).and_then(|mut c| {
                let driven = c.drive(&probe, 0, 1, Pace::Window { depth: 1 }, Keep::default())?;
                Ok((driven.bad, c))
            });
            match attempt {
                Ok((0, client)) => return Ok(client),
                _ if start.elapsed() < Duration::from_secs(5) => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                Ok(_) => {
                    return Err("connect: the server keeps shedding the connection".to_string())
                }
                Err(e) => return Err(format!("connect: {e}")),
            }
        }
    }

    fn connect_once(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Self {
            stream,
            inbox: vec![0u8; 4 << 20],
            filled: 0,
            outbox: Vec::with_capacity(1 << 16),
        })
    }

    /// Send `total` requests, `requests[(offset + i) % len]` being the i-th,
    /// at the given pace, and read every response.
    pub fn drive(
        &mut self,
        requests: &[Vec<u8>],
        offset: usize,
        total: usize,
        pace: Pace,
        mut keep: Keep,
    ) -> std::io::Result<Driven> {
        let mut driven = Driven::default();
        let track_time = keep.latencies || matches!(pace, Pace::Timeline { .. });
        // reference time per request in flight: due time or queue time
        let mut reference_ns: VecDeque<u64> = VecDeque::new();
        // requests queued but not yet fully written: (end offset in the byte stream, due time)
        let mut unsent: VecDeque<(u64, u64)> = VecDeque::new();
        let (mut queued, mut received) = (0usize, 0usize);
        let (mut queued_bytes, mut written_bytes, mut outbox_sent) = (0u64, 0u64, 0usize);
        self.outbox.clear();

        let start = Instant::now();
        let mut last_progress = start;
        while received < total {
            let now = Instant::now();
            let now_ns = (now - start).as_nanos() as u64;
            if now - last_progress > Duration::from_secs(30) {
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    format!("{received} of {total} responses, then 30 s of silence"),
                ));
            }
            // release what the pace allows
            let release_until = match pace {
                Pace::Window { depth } => {
                    let in_flight = queued - received;
                    if in_flight <= depth / 2 {
                        total.min(received + depth)
                    } else {
                        queued
                    }
                }
                Pace::Timeline { rate } => total.min((now_ns as f64 * rate / 1e9) as usize + 1),
            };
            while queued < release_until {
                let request = &requests[(offset + queued) % requests.len()];
                self.outbox.extend_from_slice(request);
                queued_bytes += request.len() as u64;
                if track_time {
                    let reference = match pace {
                        Pace::Window { .. } => now_ns,
                        Pace::Timeline { rate } => (queued as f64 * 1e9 / rate) as u64,
                    };
                    reference_ns.push_back(reference);
                    if matches!(pace, Pace::Timeline { .. }) {
                        unsent.push_back((queued_bytes, reference));
                    }
                }
                queued += 1;
            }
            if outbox_sent < self.outbox.len() {
                match self.stream.write(&self.outbox[outbox_sent..]) {
                    Ok(n) => {
                        outbox_sent += n;
                        written_bytes += n as u64;
                        last_progress = now;
                        if !unsent.is_empty() {
                            let sent_ns = start.elapsed().as_nanos() as u64;
                            while unsent.front().is_some_and(|&(end, _)| end <= written_bytes) {
                                let (_, due) = unsent.pop_front().expect("front checked");
                                driven
                                    .late_us
                                    .push(sent_ns.saturating_sub(due) as f64 / 1e3);
                            }
                        }
                        if outbox_sent == self.outbox.len() {
                            self.outbox.clear();
                            outbox_sent = 0;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(e) => return Err(e),
                }
            }
            if self.filled == self.inbox.len() {
                return Err(std::io::Error::new(
                    ErrorKind::InvalidData,
                    "response larger than the buffer",
                ));
            }
            match self.stream.read(&mut self.inbox[self.filled..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => {
                    self.filled += n;
                    last_progress = now;
                    let done_ns = start.elapsed().as_nanos() as u64;
                    let mut consumed = 0;
                    while received < queued {
                        let Some((status, len)) =
                            adapter::parse_response(&self.inbox[consumed..self.filled])
                        else {
                            break;
                        };
                        driven.bad += u64::from(status != 200);
                        if let Some(sink) = keep.bodies.as_deref_mut() {
                            sink.push(body_of(&self.inbox[consumed..consumed + len]).to_vec());
                        }
                        if let Some(reference) = reference_ns.pop_front() {
                            if keep.latencies {
                                driven
                                    .latency_us
                                    .push(done_ns.saturating_sub(reference) as f64 / 1e3);
                            }
                        }
                        consumed += len;
                        received += 1;
                    }
                    self.inbox.copy_within(consumed..self.filled, 0);
                    self.filled -= consumed;
                }
                // nothing to read yet: let a server sharing this core run
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) => return Err(e),
            }
        }
        driven.seconds = start.elapsed().as_secs_f64();
        Ok(driven)
    }
}
