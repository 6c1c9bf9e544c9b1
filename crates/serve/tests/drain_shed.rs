//! Admission + drain against a live server: over-cap connections get
//! the fast-path 503 and graceful drain answers everything in flight
//! with zero client-visible errors. (`drain_forced.rs` covers the
//! expired budget.)

use mmsb_serve::{http, ServeConfig, ServeHandle};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::{tmp_model, train_checkpoint, wait_until};

/// Read exactly one full response; panics on anything unparseable.
fn read_response(stream: &mut TcpStream) -> (u16, usize) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 8192];
    loop {
        if let Some(parsed) = http::parse_response(&buf) {
            return parsed;
        }
        let n = stream.read(&mut chunk).expect("read response");
        assert!(n > 0, "server closed mid-response: {buf:?}");
        buf.extend_from_slice(&chunk[..n]);
    }
}

#[test]
fn over_cap_connections_get_fast_path_503() {
    let model_path = tmp_model("shed");
    train_checkpoint(17, 6).save(&model_path).unwrap();
    let handle = ServeHandle::start(
        &model_path,
        &ServeConfig {
            threads: 1,
            max_conns: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // Conn A occupies the single slot and proves it works.
    let mut a = TcpStream::connect(handle.addr()).unwrap();
    a.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let (status, _) = read_response(&mut a);
    assert_eq!(status, 200);

    // Conn B must be swept with the canned 503 + Retry-After while A
    // idles — the worker sheds from the backlog at batch boundaries.
    let mut b = TcpStream::connect(handle.addr()).unwrap();
    b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    b.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let (status, _) = read_response(&mut b);
    assert_eq!(status, 503, "over-cap connection must be shed");
    // And the shed conn is closed after the response.
    let mut rest = Vec::new();
    b.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "shed close must not trail bytes");

    // Conn A is unaffected.
    a.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let (status, _) = read_response(&mut a);
    assert_eq!(status, 200);

    let stats = handle.overload_stats();
    assert!(stats.shed_conns >= 1, "{stats:?}");
    assert_eq!(stats.admitted, 1, "{stats:?}");
    handle.shutdown();
    std::fs::remove_file(&model_path).ok();
}

#[test]
fn graceful_drain_answers_everything_in_flight() {
    let model_path = tmp_model("drain");
    train_checkpoint(19, 6).save(&model_path).unwrap();
    let handle = ServeHandle::start(
        &model_path,
        &ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    // Two serial clients run until the server closes on them. Under a
    // graceful drain the only acceptable ends are: a complete response
    // followed by close, or a clean EOF *between* exchanges. A partial
    // response or a reset is a client-visible error.
    let stop_after = 10_000; // safety bound, drain ends the loop first
    let served: [Arc<AtomicU64>; 2] = Default::default();
    let clients: Vec<_> = served
        .iter()
        .map(|served| {
            let served = Arc::clone(served);
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.set_nodelay(true).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let req = b"GET /healthz HTTP/1.1\r\n\r\n";
                let mut completed = 0u64;
                let mut clean_eof = false;
                for _ in 0..stop_after {
                    if stream.write_all(req).is_err() {
                        // Write failed after the server closed at a
                        // boundary: clean from the protocol's view.
                        clean_eof = true;
                        break;
                    }
                    let mut buf = Vec::new();
                    let mut chunk = [0u8; 8192];
                    loop {
                        if let Some((status, total)) = http::parse_response(&buf) {
                            assert_eq!(status, 200);
                            assert_eq!(total, buf.len());
                            completed += 1;
                            served.store(completed, Ordering::Relaxed);
                            break;
                        }
                        match stream.read(&mut chunk) {
                            Ok(0) => {
                                assert!(
                                    buf.is_empty(),
                                    "partial response at close: {} bytes",
                                    buf.len()
                                );
                                clean_eof = true;
                                break;
                            }
                            Ok(n) => buf.extend_from_slice(&chunk[..n]),
                            // A reset with nothing received is the
                            // inherent keep-alive close race (the
                            // request never reached a worker —
                            // idempotent retry territory); a reset
                            // after partial bytes is real truncation.
                            Err(e) if buf.is_empty() => {
                                let _ = e;
                                clean_eof = true;
                                break;
                            }
                            Err(e) => panic!("truncated response during drain: {e}"),
                        }
                    }
                    if clean_eof {
                        break;
                    }
                }
                (completed, clean_eof)
            })
        })
        .collect();

    // Drain mid-traffic: once both clients are admitted and in a
    // steady rhythm.
    let progress = || served.each_ref().map(|s| s.load(Ordering::Relaxed));
    wait_until("both clients have been served 10 times", progress, || {
        progress().iter().all(|&done| done >= 10)
    });
    let report = handle.drain(2_000);

    let mut total_completed = 0;
    for c in clients {
        let (completed, clean_eof) = c.join().expect("no client panicked");
        assert!(clean_eof, "every client must see a clean close");
        assert!(completed > 0, "every client must have been served");
        total_completed += completed;
    }
    assert!(total_completed > 10, "drain started mid-traffic");
    assert_eq!(report.aborted, 0, "graceful drain must not abort: {report:?}");
    assert_eq!(report.completed, 2, "both conns closed at a boundary: {report:?}");
    assert!(!report.forced, "{report:?}");
    std::fs::remove_file(&model_path).ok();
}
