//! `mmsb-serve`: the online serving layer — trained a-MMSB models
//! answering membership and link-probability queries over HTTP at
//! interactive rates.
//!
//! Training produces a [`mmsb_core::Checkpoint`] (the PR 4 format v1
//! artifact); this crate turns one into an immutable, query-optimized
//! [`ModelSnapshot`] and serves it from a dependency-free HTTP/1.1
//! server riding `mmsb-pool` workers:
//!
//! * `GET /healthz` — liveness plus the served model's shape.
//! * `GET /v1/membership/{vertex}?k=` — the vertex's top-k communities
//!   by membership weight (precomputed at snapshot build).
//! * `GET /v1/edge/{i}/{j}` — Eq. 7 link probability, two SIMD dot
//!   products over the snapshot's widened rows.
//! * `GET /v1/community/{c}?min_weight=` — the community's members
//!   above a weight threshold, strongest first.
//! * `GET /metricsz` — plain-text `mmsb-obs` metrics snapshot.
//! * `POST /v1/reload` — re-read the checkpoint file and publish a new
//!   snapshot without dropping a single in-flight query.
//!
//! # The snapshot cell
//!
//! Reload must never stall the query path, so snapshots are published
//! through [`SnapshotCell`]: a mutex-guarded `Arc` slot plus a
//! generation counter. Writers (rare) lock, swap the `Arc`, and bump
//! the generation; readers keep a per-connection [`ReaderCache`] and
//! only touch the lock when the generation they last saw has moved —
//! the steady state is one `Acquire` load per request, wait-free, with
//! zero allocation. The protocol is generic over `mmsb-pool`'s
//! [`mmsb_pool::SyncBackend`], so `mmsb-check` model-checks the same
//! code production runs.
//!
//! # Performance envelope
//!
//! One server thread sustains ≥100k membership queries/sec over
//! loopback keep-alive connections (pinned by `bench_serve`, see
//! `BENCH_serve.json`): per-connection reusable scratch keeps the
//! query path allocation-free in steady state
//! (`tests/zero_alloc_serve.rs` pins this with a counting allocator),
//! and Eq. 7 runs on `mmsb_simd::edge_dots`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cell;
pub mod http;
pub mod loadgen;
pub mod server;
pub mod shed;
pub mod snapshot;

mod handlers;

pub use cell::{ReaderCache, SnapshotCell, SnapshotCellIn};
/// Re-exported so callers (benches, tests, the CLI) can name server
/// addresses without touching `std::net` themselves — the
/// `net-confinement` lint keeps socket types to this crate.
pub use std::net::SocketAddr;
pub use loadgen::{ChaosKind, ChaosReport, LatencyReport, OverloadReport, ThroughputReport};
pub use server::{DrainReport, OverloadStats, ServeConfig, ServeError, ServeHandle};
pub use shed::{Admission, AdmissionIn, Admit, ConnClose, Lifecycle, TokenBucket};
pub use snapshot::{ModelSnapshot, SnapshotError};
