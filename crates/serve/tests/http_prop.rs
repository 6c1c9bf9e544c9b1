//! Seeded property tests for `http::parse_request` (ISSUE satellite:
//! parser hardening; `lexer_prop.rs` is the precedent).
//!
//! Two oracles:
//!
//! * **The generator**: each iteration assembles a pipelined stream of
//!   requests whose methods, targets, connection semantics, and byte
//!   lengths are known by construction — the parser must reproduce
//!   them exactly, and every truncation of a valid stream must be
//!   `Incomplete` before the first request's length and `Complete`
//!   after.
//! * **A naive reference parser**: an independent, allocation-happy
//!   reimplementation of the grammar. Mutated / garbage-spliced /
//!   truncated streams (where the generator can no longer predict the
//!   verdict) must classify identically under both parsers.
//!
//! Plus the totality pins: no input may panic the parser, and
//! `Incomplete` is only ever returned when the buffer is small enough
//! that the server's fixed read buffer can still grow it — garbage
//! without a header terminator must become `HeadTooLarge`, never an
//! `Incomplete` livelock.
//!
//! Seeds are fixed (`MASTER_SEED` + iteration), so failures reproduce
//! deterministically and print the offending bytes.

use mmsb_rand::{Rng, RngCore, Xoshiro256PlusPlus};
use mmsb_serve::http::{self, Parsed, MAX_BODY_BYTES, MAX_HEAD_BYTES};

const MASTER_SEED: u64 = 0x0e11_0ad5_11ed_c0de;

/// Owned, comparable classification of a parse outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Out {
    Complete {
        method: String,
        path: String,
        query: String,
        keep_alive: bool,
        consumed: usize,
    },
    Incomplete,
    Malformed,
    HeadTooLarge,
    BodyTooLarge,
}

fn classify(p: Parsed<'_>) -> Out {
    match p {
        Parsed::Complete { request, consumed } => Out::Complete {
            method: request.method.to_string(),
            path: request.path.to_string(),
            query: request.query.to_string(),
            keep_alive: request.keep_alive,
            consumed,
        },
        Parsed::Incomplete => Out::Incomplete,
        Parsed::Malformed => Out::Malformed,
        Parsed::HeadTooLarge => Out::HeadTooLarge,
        Parsed::BodyTooLarge => Out::BodyTooLarge,
    }
}

/// The independent reference parser: same grammar, naive style —
/// vector-collecting, string-slicing, no shared helpers with the real
/// implementation.
fn reference(buf: &[u8]) -> Out {
    let mut head_end = None;
    let mut i = 0;
    while i + 4 <= buf.len() {
        if &buf[i..i + 4] == b"\r\n\r\n" {
            head_end = Some(i + 4);
            break;
        }
        i += 1;
    }
    let Some(head_end) = head_end else {
        return if buf.len() > MAX_HEAD_BYTES {
            Out::HeadTooLarge
        } else {
            Out::Incomplete
        };
    };
    if head_end > MAX_HEAD_BYTES {
        return Out::HeadTooLarge;
    }

    // Lines split on bare '\n' with one trailing '\r' stripped each.
    let head = &buf[..head_end - 4];
    let mut lines: Vec<&[u8]> = Vec::new();
    for piece in head.split(|&b| b == b'\n') {
        lines.push(match piece.last() {
            Some(b'\r') => &piece[..piece.len() - 1],
            _ => piece,
        });
    }

    let Ok(request_line) = std::str::from_utf8(lines[0]) else {
        return Out::Malformed;
    };
    let parts: Vec<&str> = request_line.split(' ').collect();
    if parts.len() != 3 {
        return Out::Malformed;
    }
    let (method, target, version) = (parts[0], parts[1], parts[2]);
    if method.is_empty() || !target.starts_with('/') {
        return Out::Malformed;
    }
    let keep_alive_default = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Out::Malformed,
    };

    let mut keep_alive = keep_alive_default;
    let mut content_length = 0usize;
    for line in &lines[1..] {
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            return Out::Malformed;
        };
        let name: Vec<u8> = line[..colon].to_ascii_lowercase();
        let value: &[u8] = line[colon + 1..].trim_ascii();
        if name == b"connection" {
            let v = value.to_ascii_lowercase();
            if v == b"close" {
                keep_alive = false;
            } else if v == b"keep-alive" {
                keep_alive = true;
            }
        } else if name == b"content-length" {
            let parsed = std::str::from_utf8(value)
                .ok()
                .and_then(|v| v.parse::<usize>().ok());
            let Some(len) = parsed else {
                return Out::Malformed;
            };
            if len > MAX_BODY_BYTES {
                return Out::BodyTooLarge;
            }
            content_length = len;
        }
    }

    if buf.len() < head_end + content_length {
        return Out::Incomplete;
    }
    let (path, query) = match target.find('?') {
        Some(q) => (&target[..q], &target[q + 1..]),
        None => (target, ""),
    };
    Out::Complete {
        method: method.to_string(),
        path: path.to_string(),
        query: query.to_string(),
        keep_alive,
        consumed: head_end + content_length,
    }
}

/// One generated request with its predicted parse.
struct GenReq {
    bytes: Vec<u8>,
    method: String,
    path: String,
    query: String,
    keep_alive: bool,
}

fn gen_request(r: &mut Xoshiro256PlusPlus) -> GenReq {
    let method = ["GET", "POST", "PUT", "DELETE", "HEAD", "PATCH"][r.below_usize(6)].to_string();
    let mut path = String::new();
    for _ in 0..1 + r.below_usize(3) {
        path.push('/');
        for _ in 0..1 + r.below_usize(8) {
            path.push((b'a' + r.below(26) as u8) as char);
        }
    }
    let query = if r.coin() {
        format!("k={}&x={}", r.below(100), r.below(100))
    } else {
        String::new()
    };
    let http11 = r.bernoulli(0.8);
    let version = if http11 { "HTTP/1.1" } else { "HTTP/1.0" };
    let target = if query.is_empty() {
        path.clone()
    } else {
        format!("{path}?{query}")
    };
    let mut bytes = format!("{method} {target} {version}\r\n").into_bytes();

    let mut keep_alive = http11;
    // Random-cased Connection header, sometimes.
    match r.below(4) {
        0 => {
            let token = if r.coin() { "Close" } else { "close" };
            let name = if r.coin() { "Connection" } else { "cOnNeCtIoN" };
            bytes.extend_from_slice(format!("{name}: {token}\r\n").as_bytes());
            keep_alive = false;
        }
        1 => {
            let token = if r.coin() { "Keep-Alive" } else { "keep-alive" };
            bytes.extend_from_slice(format!("Connection:  {token} \r\n").as_bytes());
            keep_alive = true;
        }
        _ => {}
    }
    // Benign extra headers.
    for _ in 0..r.below_usize(3) {
        bytes.extend_from_slice(
            format!("X-Extra-{}: value{}\r\n", r.below(10), r.below(1000)).as_bytes(),
        );
    }
    // Body via Content-Length, sometimes.
    let body_len = if r.coin() { r.below_usize(180) } else { 0 };
    if body_len > 0 || r.below(5) == 0 {
        let pad = if r.coin() { " " } else { "" };
        bytes.extend_from_slice(format!("Content-Length:{pad}{body_len}\r\n").as_bytes());
    }
    bytes.extend_from_slice(b"\r\n");
    for _ in 0..body_len {
        bytes.push(r.next_u64() as u8);
    }

    GenReq {
        bytes,
        method,
        path,
        query,
        keep_alive,
    }
}

#[test]
fn generated_pipelined_streams_parse_exactly() {
    for iter in 0..300u64 {
        let mut r = Xoshiro256PlusPlus::seed_from_u64(MASTER_SEED.wrapping_add(iter));
        let reqs: Vec<GenReq> = (0..1 + r.below_usize(3))
            .map(|_| gen_request(&mut r))
            .collect();
        let stream: Vec<u8> = reqs.iter().flat_map(|q| q.bytes.iter().copied()).collect();

        // Walk the pipeline: each request must come back field-exact.
        let mut off = 0usize;
        for (i, q) in reqs.iter().enumerate() {
            let got = classify(http::parse_request(&stream[off..]));
            let want = Out::Complete {
                method: q.method.clone(),
                path: q.path.clone(),
                query: q.query.clone(),
                keep_alive: q.keep_alive,
                consumed: q.bytes.len(),
            };
            assert_eq!(got, want, "iter {iter}, request {i}");
            off += q.bytes.len();
        }
        assert_eq!(off, stream.len());

        // Every truncation of the first request is Incomplete; at and
        // past its end, Complete with the same verdict.
        let first_len = reqs[0].bytes.len();
        for cut in 0..stream.len().min(first_len + 40) {
            let got = classify(http::parse_request(&stream[..cut]));
            if cut < first_len {
                assert_eq!(got, Out::Incomplete, "iter {iter}, cut {cut}");
            } else {
                assert!(
                    matches!(got, Out::Complete { consumed, .. } if consumed == first_len),
                    "iter {iter}, cut {cut}: {got:?}"
                );
            }
        }
    }
}

#[test]
fn mutated_streams_match_the_reference_parser() {
    for iter in 0..300u64 {
        let mut r = Xoshiro256PlusPlus::seed_from_u64(MASTER_SEED.wrapping_add(7_000 + iter));
        let reqs: Vec<GenReq> = (0..1 + r.below_usize(2))
            .map(|_| gen_request(&mut r))
            .collect();
        let mut stream: Vec<u8> = reqs.iter().flat_map(|q| q.bytes.iter().copied()).collect();

        // Mutate: byte flips, garbage splices, or both.
        for _ in 0..1 + r.below_usize(4) {
            match r.below(3) {
                0 => {
                    let at = r.below_usize(stream.len());
                    stream[at] ^= 1 << r.below(8);
                }
                1 => {
                    let at = r.below_usize(stream.len() + 1);
                    let junk: Vec<u8> =
                        (0..r.below_usize(24)).map(|_| r.next_u64() as u8).collect();
                    stream.splice(at..at, junk);
                }
                _ => {
                    let cut = r.below_usize(stream.len() + 1);
                    stream.truncate(cut);
                }
            }
        }

        let got = classify(http::parse_request(&stream));
        let want = reference(&stream);
        assert_eq!(got, want, "iter {iter}: parsers diverged on {stream:?}");

        // And on a sample of truncations of the mutant.
        for cut in (0..stream.len()).step_by(7) {
            let got = classify(http::parse_request(&stream[..cut]));
            let want = reference(&stream[..cut]);
            assert_eq!(got, want, "iter {iter}, cut {cut}: {:?}", &stream[..cut]);
        }
    }
}

/// Totality / liveness pin: `Incomplete` promises "reading more bytes
/// can help", so it must only ever be returned when the buffer is
/// still smaller than the server's fixed per-connection read buffer
/// (`MAX_HEAD_BYTES + MAX_BODY_BYTES + slack`). Unterminated garbage
/// past the head limit must be `HeadTooLarge`, never `Incomplete`.
#[test]
fn no_incomplete_livelock_on_garbage() {
    for iter in 0..60u64 {
        let mut r = Xoshiro256PlusPlus::seed_from_u64(MASTER_SEED.wrapping_add(90_000 + iter));
        let len = MAX_HEAD_BYTES + 1 + r.below_usize(2_000);
        let mut garbage: Vec<u8> = (0..len).map(|_| r.next_u64() as u8).collect();
        // Strip any accidental terminator so the head never ends.
        for i in 0..garbage.len().saturating_sub(3) {
            if &garbage[i..i + 4] == b"\r\n\r\n" {
                garbage[i] = b'x';
            }
        }
        assert_eq!(
            classify(http::parse_request(&garbage)),
            Out::HeadTooLarge,
            "iter {iter}: unterminated over-limit garbage must be 431 material"
        );
    }

    // The general invariant on arbitrary (mutated-valid) buffers.
    for iter in 0..120u64 {
        let mut r = Xoshiro256PlusPlus::seed_from_u64(MASTER_SEED.wrapping_add(91_000 + iter));
        let q = gen_request(&mut r);
        let mut bytes = q.bytes;
        for _ in 0..r.below_usize(6) {
            let at = r.below_usize(bytes.len());
            bytes[at] ^= 0xff;
        }
        if classify(http::parse_request(&bytes)) == Out::Incomplete {
            assert!(
                bytes.len() < MAX_HEAD_BYTES + MAX_BODY_BYTES + 4,
                "Incomplete on a buffer the read loop could never grow"
            );
        }
    }
}

/// Directed edges the random walk is unlikely to hit.
#[test]
fn directed_parser_edges() {
    // Content-Length overflow is malformed, not a wraparound.
    let big = b"GET / HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n";
    assert_eq!(classify(http::parse_request(big)), Out::Malformed);

    // Exactly over the body cap is 413 material.
    let over = format!(
        "GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY_BYTES + 1
    );
    assert_eq!(
        classify(http::parse_request(over.as_bytes())),
        Out::BodyTooLarge
    );
    let at = format!(
        "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY_BYTES
    );
    assert_eq!(
        classify(http::parse_request(at.as_bytes())),
        Out::Incomplete
    );

    // A terminated head that is itself over the limit: 431, and the
    // reference agrees.
    let mut padded = b"GET / HTTP/1.1\r\n".to_vec();
    while padded.len() <= MAX_HEAD_BYTES {
        padded.extend_from_slice(b"X-P: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
    }
    padded.extend_from_slice(b"\r\n");
    assert_eq!(classify(http::parse_request(&padded)), Out::HeadTooLarge);
    assert_eq!(reference(&padded), Out::HeadTooLarge);

    // Double space in the request line means four parts: malformed.
    assert_eq!(
        classify(http::parse_request(b"GET  / HTTP/1.1\r\n\r\n")),
        Out::Malformed
    );
    assert_eq!(reference(b"GET  / HTTP/1.1\r\n\r\n"), Out::Malformed);
}
