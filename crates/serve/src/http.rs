//! A minimal, allocation-free HTTP/1.1 subset.
//!
//! The server speaks exactly what its clients need and nothing more:
//! request-line + headers (only `Connection` and `Content-Length` are
//! interpreted), keep-alive by default, pipelining supported by
//! reporting how many bytes each request consumed so the caller can
//! parse the next one from the same buffer. Parsing borrows from the
//! connection's read buffer and the writers append to a caller-owned
//! `Vec<u8>` — on the query path both buffers are reused across
//! requests, so steady state allocates nothing.

/// One parsed request, borrowing the connection buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request<'a> {
    /// Request method, e.g. `GET`.
    pub method: &'a str,
    /// Path component of the target, e.g. `/v1/edge/3/4`.
    pub path: &'a str,
    /// Query string after `?` (empty when absent), e.g. `k=3`.
    pub query: &'a str,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

/// Outcome of trying to parse one request from the front of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parsed<'a> {
    /// A complete request occupying `consumed` bytes of the buffer.
    Complete {
        /// The parsed request.
        request: Request<'a>,
        /// Bytes the request (including any body) occupies; the next
        /// pipelined request starts here.
        consumed: usize,
    },
    /// The buffer holds only a prefix of a request; read more bytes.
    Incomplete,
    /// The bytes are not a well-formed request; respond 400 and close.
    Malformed,
    /// The request head (request line + headers) exceeds
    /// [`MAX_HEAD_BYTES`]; respond 431 and close.
    HeadTooLarge,
    /// The declared body exceeds [`MAX_BODY_BYTES`]; respond 413 and
    /// close.
    BodyTooLarge,
}

/// Byte-wise ASCII case-insensitive equality.
fn eq_ignore_case(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.eq_ignore_ascii_case(y))
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Parse one request from the front of `buf`. See [`Parsed`].
// xlint: allow(hot-path-panic) — head_end comes from find_header_end (>= 4, within buf) and colon from position() on the same line, so every slice bound is proven on the preceding lines
pub fn parse_request(buf: &[u8]) -> Parsed<'_> {
    let Some(head_end) = find_header_end(buf) else {
        // Reject unbounded header growth before ever seeing the end.
        return if buf.len() > MAX_HEAD_BYTES {
            Parsed::HeadTooLarge
        } else {
            Parsed::Incomplete
        };
    };
    if head_end > MAX_HEAD_BYTES {
        return Parsed::HeadTooLarge;
    }
    let head = &buf[..head_end - 4];
    let mut lines = head
        .split(|&b| b == b'\n')
        .map(|l| l.strip_suffix(b"\r").unwrap_or(l));
    let Some(request_line) = lines.next() else {
        return Parsed::Malformed;
    };
    let Ok(request_line) = std::str::from_utf8(request_line) else {
        return Parsed::Malformed;
    };
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Parsed::Malformed;
    };
    if parts.next().is_some() || method.is_empty() || !target.starts_with('/') {
        return Parsed::Malformed;
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Parsed::Malformed,
    };

    let mut keep_alive = http11;
    let mut content_length = 0usize;
    for line in lines {
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            return Parsed::Malformed;
        };
        let name = &line[..colon];
        let value = line[colon + 1..].trim_ascii();
        if eq_ignore_case(name, b"connection") {
            if eq_ignore_case(value, b"close") {
                keep_alive = false;
            } else if eq_ignore_case(value, b"keep-alive") {
                keep_alive = true;
            }
        } else if eq_ignore_case(name, b"content-length") {
            let Some(len) = std::str::from_utf8(value)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
            else {
                return Parsed::Malformed;
            };
            if len > MAX_BODY_BYTES {
                return Parsed::BodyTooLarge;
            }
            content_length = len;
        }
    }

    let consumed = head_end + content_length;
    if buf.len() < consumed {
        return Parsed::Incomplete;
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    Parsed::Complete {
        request: Request {
            method,
            path,
            query,
            keep_alive,
        },
        consumed,
    }
}

/// Largest request head (request line + headers) the server accepts.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Largest request body the server accepts (bodies are ignored, but
/// must be consumed to keep the connection parseable).
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// The value of query parameter `key` (first occurrence), if present.
pub fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        (k == key).then_some(v)
    })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Append a complete response (status line, `Content-Type`,
/// `Content-Length`, blank line, body) to `out`. Never allocates
/// beyond `out`'s own growth.
pub fn write_response(out: &mut Vec<u8>, status: u16, content_type: &str, body: &[u8]) {
    use std::io::Write as _;
    let _ = write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n",
        reason(status),
        body.len()
    );
    out.extend_from_slice(body);
}

/// The canned fast-path 503 + `Retry-After` written to queued
/// connections that every worker is too busy to serve, before any
/// parsing happens. A `const` so the shed path costs one `write` and
/// zero allocations.
pub const SHED_RESPONSE: &[u8] = b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\n\
    Connection: close\r\nContent-Type: application/json\r\nContent-Length: 26\r\n\r\n\
    {\"error\":\"over capacity\"}\n";

/// The canned 408 written (best-effort) before closing a connection
/// whose partially received request outlived the receive deadline.
pub const TIMEOUT_RESPONSE: &[u8] = b"HTTP/1.1 408 Request Timeout\r\n\
    Connection: close\r\nContent-Type: application/json\r\nContent-Length: 29\r\n\r\n\
    {\"error\":\"receive deadline\"}\n";

/// Parse one response at the front of `buf` (client side, used by the
/// load generator): returns `(status, total_bytes)` once the full
/// response — head plus `Content-Length` body — is present.
// xlint: allow(hot-path-panic) — find_header_end only returns offsets >= 4 that lie within buf (it scanned the terminator there)
pub fn parse_response(buf: &[u8]) -> Option<(u16, usize)> {
    let head_end = find_header_end(buf)?;
    let head = std::str::from_utf8(&buf[..head_end - 4]).ok()?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next()?;
    let status: u16 = status_line.split(' ').nth(1)?.parse().ok()?;
    let mut content_length = 0usize;
    for line in lines {
        let (name, value) = line.split_once(':')?;
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse().ok()?;
        }
    }
    let total = head_end + content_length;
    (buf.len() >= total).then_some((status, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_get() {
        let buf = b"GET /v1/edge/3/4?x=1 HTTP/1.1\r\nHost: h\r\n\r\n";
        let Parsed::Complete { request, consumed } = parse_request(buf) else {
            panic!("expected complete");
        };
        assert_eq!(request.method, "GET");
        assert_eq!(request.path, "/v1/edge/3/4");
        assert_eq!(request.query, "x=1");
        assert!(request.keep_alive);
        assert_eq!(consumed, buf.len());
    }

    #[test]
    fn pipelined_requests_report_consumed_lengths() {
        let one = b"GET /healthz HTTP/1.1\r\n\r\n".as_slice();
        let two = b"GET /metricsz HTTP/1.1\r\n\r\n".as_slice();
        let buf = [one, two].concat();
        let Parsed::Complete { request, consumed } = parse_request(&buf) else {
            panic!("first");
        };
        assert_eq!(request.path, "/healthz");
        assert_eq!(consumed, one.len());
        let Parsed::Complete { request, consumed } = parse_request(&buf[consumed..]) else {
            panic!("second");
        };
        assert_eq!(request.path, "/metricsz");
        assert_eq!(consumed, two.len());
    }

    #[test]
    fn incomplete_until_body_arrives() {
        let head = b"POST /v1/reload HTTP/1.1\r\nContent-Length: 4\r\n\r\n";
        assert_eq!(parse_request(head), Parsed::Incomplete);
        let full = [head.as_slice(), b"abcd"].concat();
        let Parsed::Complete { request, consumed } = parse_request(&full) else {
            panic!("expected complete");
        };
        assert_eq!(request.method, "POST");
        assert_eq!(consumed, full.len());
    }

    #[test]
    fn connection_close_and_http10_semantics() {
        let buf = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        let Parsed::Complete { request, .. } = parse_request(buf) else {
            panic!();
        };
        assert!(!request.keep_alive);

        let buf = b"GET / HTTP/1.0\r\n\r\n";
        let Parsed::Complete { request, .. } = parse_request(buf) else {
            panic!();
        };
        assert!(!request.keep_alive);

        let buf = b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n";
        let Parsed::Complete { request, .. } = parse_request(buf) else {
            panic!();
        };
        assert!(request.keep_alive);
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            b"FOO\r\n\r\n".as_slice(),
            b"GET noslash HTTP/1.1\r\n\r\n",
            b"GET / HTTP/2.0\r\n\r\n",
            b"GET / HTTP/1.1\r\nbroken header line\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
        ] {
            assert_eq!(parse_request(bad), Parsed::Malformed, "{bad:?}");
        }
    }

    #[test]
    fn partial_head_is_incomplete_but_bounded() {
        assert_eq!(parse_request(b"GET /heal"), Parsed::Incomplete);
        let oversized = vec![b'a'; MAX_HEAD_BYTES + 1];
        assert_eq!(parse_request(&oversized), Parsed::HeadTooLarge);
        // A terminated head that is itself over the cap is also 431
        // material, not a silent 400.
        let mut huge = vec![b'a'; MAX_HEAD_BYTES + 1];
        huge.splice(0..0, b"GET / HTTP/1.1\r\nX: ".iter().copied());
        huge.extend_from_slice(b"\r\n\r\n");
        assert_eq!(parse_request(&huge), Parsed::HeadTooLarge);
    }

    #[test]
    fn oversized_body_is_413_material() {
        let req = format!(
            "POST /v1/reload HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(parse_request(req.as_bytes()), Parsed::BodyTooLarge);
    }

    #[test]
    fn retry_after_responses_parse_and_name_their_reason() {
        // The one Retry-After response is the sweep's canned 503.
        let text = std::str::from_utf8(SHED_RESPONSE).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        let (status, len) = parse_response(SHED_RESPONSE).unwrap();
        assert_eq!((status, len), (503, SHED_RESPONSE.len()));

        for (status, reason) in [
            (503, "Service Unavailable"),
            (408, "Request Timeout"),
            (413, "Content Too Large"),
            (431, "Request Header Fields Too Large"),
        ] {
            let mut out = Vec::new();
            write_response(&mut out, status, "application/json", b"{}");
            assert!(
                String::from_utf8(out).unwrap().contains(reason),
                "{status} should render {reason}"
            );
        }
    }

    #[test]
    fn shed_response_is_a_complete_parseable_503() {
        let (status, len) = parse_response(SHED_RESPONSE).unwrap();
        assert_eq!(status, 503);
        assert_eq!(
            len,
            SHED_RESPONSE.len(),
            "Content-Length must match the body exactly"
        );
        let (status, len) = parse_response(TIMEOUT_RESPONSE).unwrap();
        assert_eq!(status, 408);
        assert_eq!(
            len,
            TIMEOUT_RESPONSE.len(),
            "Content-Length must match the body exactly"
        );
    }

    #[test]
    fn query_params_parse() {
        assert_eq!(query_param("k=3&x=9", "k"), Some("3"));
        assert_eq!(query_param("k=3&x=9", "x"), Some("9"));
        assert_eq!(query_param("k=3", "missing"), None);
        assert_eq!(query_param("", "k"), None);
        assert_eq!(query_param("flag&k=2", "flag"), Some(""));
    }

    #[test]
    fn responses_round_trip_through_the_client_parser() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "application/json", b"{\"ok\":true}");
        write_response(&mut out, 404, "application/json", b"{}");
        let (status, len) = parse_response(&out).unwrap();
        assert_eq!(status, 200);
        let (status2, len2) = parse_response(&out[len..]).unwrap();
        assert_eq!(status2, 404);
        assert_eq!(len + len2, out.len());
        // Truncated: not yet parseable.
        assert_eq!(parse_response(&out[..len - 1]), None);
    }
}
