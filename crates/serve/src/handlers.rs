//! Request routing and JSON rendering.
//!
//! One entry point, [`handle`]: refresh the connection's snapshot
//! cache (wait-free in steady state), route on the path, render the
//! response into the connection's reusable buffers. Nothing here
//! allocates on the query path — JSON is written with `write!` into
//! the caller-owned body buffer, and numbers format through core's
//! stack-based formatter.

use crate::cell::ReaderCache;
use crate::http::{self, Request};
use crate::server::ServerShared;
use crate::snapshot::ModelSnapshot;
use mmsb_obs::id as obs_id;
use std::io::Write as _;

/// Which latency histogram a request lands in.
#[derive(Clone, Copy)]
enum Endpoint {
    Membership,
    Edge,
    Community,
    Other,
}

impl Endpoint {
    fn hist(self) -> usize {
        match self {
            Endpoint::Membership => obs_id::H_SERVE_MEMBERSHIP_NS,
            Endpoint::Edge => obs_id::H_SERVE_EDGE_NS,
            Endpoint::Community => obs_id::H_SERVE_COMMUNITY_NS,
            Endpoint::Other => obs_id::H_SERVE_OTHER_NS,
        }
    }
}

/// Handle one parsed request: write exactly one HTTP response into
/// `out` (body staged in `body`), and return whether the connection
/// should stay open.
pub(crate) fn handle(
    shared: &ServerShared,
    cache: &mut ReaderCache<ModelSnapshot>,
    req: &Request<'_>,
    body: &mut Vec<u8>,
    out: &mut Vec<u8>,
) -> bool {
    let mut span = mmsb_obs::timed_span(obs_id::S_SERVE_REQUEST, Endpoint::Other.hist());

    shared.cell.refresh(cache);
    body.clear();
    let (endpoint, status) = route(shared, cache, req, body);
    span.set_hist(endpoint.hist());
    http::write_response(out, status, "application/json", body);

    mmsb_obs::counter_add(obs_id::C_SERVE_REQUESTS, 1);
    if status >= 400 {
        mmsb_obs::counter_add(obs_id::C_SERVE_ERRORS, 1);
    }
    req.keep_alive
}

/// Dispatch on method + path, filling `body`; returns the endpoint
/// class and HTTP status.
fn route(
    shared: &ServerShared,
    cache: &mut ReaderCache<ModelSnapshot>,
    req: &Request<'_>,
    body: &mut Vec<u8>,
) -> (Endpoint, u16) {
    let snap = cache.get();
    let generation = cache.generation();
    match (req.method, req.path) {
        ("GET", "/healthz") => {
            let _ = write!(
                body,
                "{{\"ok\":true,\"generation\":{generation},\"n\":{},\"k\":{},\"delta\":{}}}",
                snap.n(),
                snap.k(),
                snap.delta()
            );
            (Endpoint::Other, 200)
        }
        ("GET", "/metricsz") => {
            match mmsb_obs::get() {
                Some(obs) => {
                    body.extend_from_slice(mmsb_obs::export::metrics_text(&obs.metrics).as_bytes())
                }
                None => body.extend_from_slice(b"obs uninitialized (run with --obs-level)\n"),
            }
            (Endpoint::Other, 200)
        }
        ("POST", "/v1/reload") => match shared.reload() {
            Ok(generation) => {
                // The publisher bumped the cell; pick it up so the
                // response reflects what this connection now serves.
                shared.cell.refresh(cache);
                let _ = write!(body, "{{\"reloaded\":true,\"generation\":{generation}}}");
                (Endpoint::Other, 200)
            }
            Err(e) => {
                let _ = write!(body, "{{\"error\":\"reload failed: {e}\"}}");
                (Endpoint::Other, 500)
            }
        },
        ("GET", path) if path.starts_with("/v1/membership/") => {
            membership(shared, snap, generation, req, body)
        }
        ("GET", path) if path.starts_with("/v1/edge/") => edge(snap, generation, req, body),
        ("GET", path) if path.starts_with("/v1/community/") => {
            community(snap, generation, req, body)
        }
        ("GET" | "POST", _) => {
            body.extend_from_slice(b"{\"error\":\"not found\"}");
            (Endpoint::Other, 404)
        }
        _ => {
            body.extend_from_slice(b"{\"error\":\"method not allowed\"}");
            (Endpoint::Other, 405)
        }
    }
}

// xlint: allow(hot-path-panic) — k is clamped to snap.ranked() before the slice and communities_by_weight returns exactly snap.ranked() entries
fn membership(
    shared: &ServerShared,
    snap: &ModelSnapshot,
    generation: usize,
    req: &Request<'_>,
    body: &mut Vec<u8>,
) -> (Endpoint, u16) {
    let ep = Endpoint::Membership;
    let Some(vertex) = req
        .path
        .strip_prefix("/v1/membership/")
        .and_then(|v| v.parse::<usize>().ok())
    else {
        body.extend_from_slice(b"{\"error\":\"bad vertex\"}");
        return (ep, 400);
    };
    if vertex >= snap.n() {
        body.extend_from_slice(b"{\"error\":\"vertex out of range\"}");
        return (ep, 404);
    }
    let k = match http::query_param(req.query, "k") {
        None => shared.default_k,
        Some(v) => match v.parse::<usize>() {
            Ok(k) => k,
            Err(_) => {
                body.extend_from_slice(b"{\"error\":\"bad k\"}");
                return (ep, 400);
            }
        },
    }
    .min(snap.ranked());
    let _ = write!(
        body,
        "{{\"vertex\":{vertex},\"k\":{k},\"generation\":{generation},\"communities\":["
    );
    for (i, &c) in snap.communities_by_weight(vertex)[..k].iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            body,
            "{sep}{{\"community\":{c},\"weight\":{}}}",
            snap.weight(vertex, c as usize)
        );
    }
    body.extend_from_slice(b"]}");
    (ep, 200)
}

fn edge(
    snap: &ModelSnapshot,
    generation: usize,
    req: &Request<'_>,
    body: &mut Vec<u8>,
) -> (Endpoint, u16) {
    let ep = Endpoint::Edge;
    let pair = req.path.strip_prefix("/v1/edge/").and_then(|rest| {
        let (i, j) = rest.split_once('/')?;
        Some((i.parse::<usize>().ok()?, j.parse::<usize>().ok()?))
    });
    let Some((i, j)) = pair else {
        body.extend_from_slice(b"{\"error\":\"bad pair\"}");
        return (ep, 400);
    };
    if i >= snap.n() || j >= snap.n() {
        body.extend_from_slice(b"{\"error\":\"vertex out of range\"}");
        return (ep, 404);
    }
    let p = snap.edge_likelihood(i, j);
    let _ = write!(
        body,
        "{{\"i\":{i},\"j\":{j},\"p\":{p},\"generation\":{generation}}}"
    );
    (ep, 200)
}

fn community(
    snap: &ModelSnapshot,
    generation: usize,
    req: &Request<'_>,
    body: &mut Vec<u8>,
) -> (Endpoint, u16) {
    let ep = Endpoint::Community;
    let Some(c) = req
        .path
        .strip_prefix("/v1/community/")
        .and_then(|v| v.parse::<usize>().ok())
    else {
        body.extend_from_slice(b"{\"error\":\"bad community\"}");
        return (ep, 400);
    };
    if c >= snap.k() {
        body.extend_from_slice(b"{\"error\":\"community out of range\"}");
        return (ep, 404);
    }
    let min_weight = match http::query_param(req.query, "min_weight") {
        None => DEFAULT_MIN_WEIGHT,
        Some(v) => match v.parse::<f64>() {
            Ok(w) if w.is_finite() => w,
            _ => {
                body.extend_from_slice(b"{\"error\":\"bad min_weight\"}");
                return (ep, 400);
            }
        },
    };
    let _ = write!(
        body,
        "{{\"community\":{c},\"min_weight\":{min_weight},\"generation\":{generation},\"members\":["
    );
    // Members are pre-sorted by descending weight: emit the prefix
    // above the threshold and stop at the first miss.
    let mut first = true;
    for &v in snap.members_by_weight(c) {
        let w = snap.weight(v as usize, c);
        if w < min_weight {
            break;
        }
        let sep = if first { "" } else { "," };
        first = false;
        let _ = write!(body, "{sep}{{\"vertex\":{v},\"weight\":{w}}}");
    }
    body.extend_from_slice(b"]}");
    (ep, 200)
}

/// Community listings default to members with at least this weight —
/// without a floor, every query would return all `n` vertices.
pub const DEFAULT_MIN_WEIGHT: f64 = 0.01;
