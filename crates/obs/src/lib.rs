//! In-tree observability: metrics, spans, and exporters.
//!
//! The paper's evaluation lives and dies by per-stage time accounting
//! (Table III), and the fault/recovery paths need the same visibility at
//! runtime that the netsim virtual clock gives the simulator. This crate
//! is the one place real wall-clock time enters the workspace (outside
//! `mmsb-bench`); everything else takes time from [`clock`] or from the
//! netsim virtual clock — an invariant `xlint` enforces.
//!
//! Three layers, all dependency-free and all safe code:
//!
//! * [`metrics`] — counters, gauges, and fixed-bucket log2 histograms,
//!   recorded through per-thread sharded `AtomicU64` slots. No locks, no
//!   allocation on the hot path: every slot is pre-sized at [`init`], so
//!   the zero-allocation steady state `crates/core/tests/zero_alloc.rs`
//!   pins holds with instrumentation enabled. The id tables start with
//!   the workspace's one phase list, [`Phase`].
//! * [`spans`] — span tracing into per-thread ring buffers of fixed
//!   capacity. Overflow is counted, never reallocated; a caller-owned
//!   [`spans::Span`] guard stamps `(span, tid, start, duration)` on drop
//!   and, given a histogram, records the same duration there — the one
//!   timer of a region that has both.
//! * [`export`] — chrome://tracing JSON (load the file in
//!   `chrome://tracing` or <https://ui.perfetto.dev>), a plain-text
//!   snapshot, and a machine-readable `metrics.json` sharing the
//!   `schema`/`threads`/`host_cores` conventions of the bench JSON lines.
//!
//! [`json`] is the workspace's one JSON reader: the trace parser's,
//! `xlint`'s and the repository benchmark's.
//!
//! The global pipeline is gated by an [`ObsLevel`] stored in one atomic:
//! at [`ObsLevel::Off`] (the default) every recording call is a relaxed
//! load and a branch — near-nothing, which `bench_phi`'s `obs_overhead`
//! gate pins. [`ObsLevel::Metrics`] arms counters/gauges/histograms;
//! [`ObsLevel::Spans`] additionally arms span capture.

#![forbid(unsafe_code)]

pub mod clock;
pub mod export;
pub mod json;
pub mod metrics;
pub mod spans;

pub use metrics::{id, Phase, Registry};
pub use spans::{Span, SpanRecord, SpanSink, VIRTUAL_TID};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// How much the global pipeline records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObsLevel {
    /// Record nothing; every instrumentation site is one relaxed atomic
    /// load and a branch.
    Off,
    /// Counters, gauges, and histograms.
    Metrics,
    /// Metrics plus span capture into the ring buffers.
    Spans,
}

impl ObsLevel {
    fn from_u8(v: u8) -> Self {
        match v {
            0 => ObsLevel::Off,
            1 => ObsLevel::Metrics,
            _ => ObsLevel::Spans,
        }
    }
}

impl std::str::FromStr for ObsLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(ObsLevel::Off),
            "metrics" => Ok(ObsLevel::Metrics),
            "spans" => Ok(ObsLevel::Spans),
            other => Err(format!(
                "unknown obs level {other:?} (expected off|metrics|spans)"
            )),
        }
    }
}

impl std::fmt::Display for ObsLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ObsLevel::Off => "off",
            ObsLevel::Metrics => "metrics",
            ObsLevel::Spans => "spans",
        })
    }
}

/// Sizing and level of the global pipeline.
#[derive(Debug, Clone, Copy)]
pub struct ObsConfig {
    /// Initial recording level.
    pub level: ObsLevel,
    /// Per-thread shard count for metric slots and span rings. Threads
    /// beyond this fold onto existing shards (metrics merge; spans share
    /// a ring) — nothing is lost, only attribution granularity.
    pub shards: usize,
    /// Span records each shard's ring holds. Overflowing records are
    /// dropped and counted, never reallocated.
    pub span_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            level: ObsLevel::Off,
            shards: 64,
            span_capacity: 1 << 16,
        }
    }
}

impl ObsConfig {
    /// Default sizing for `level`: below [`ObsLevel::Spans`], which
    /// records no span, each shard's ring holds one record. The first
    /// [`init`] sizes the rings for good, so a caller that raises the
    /// level to `Spans` later initializes at `Spans` and then lowers it.
    pub fn at(level: ObsLevel) -> Self {
        let span_capacity = if level == ObsLevel::Spans {
            Self::default().span_capacity
        } else {
            1
        };
        Self {
            level,
            span_capacity,
            ..Self::default()
        }
    }
}

/// The global registry + span sink pair.
#[derive(Debug)]
pub struct Obs {
    /// Counters, gauges, histograms.
    pub metrics: Registry,
    /// Span ring buffers.
    pub spans: SpanSink,
}

static LEVEL: AtomicU8 = AtomicU8::new(0);
static OBS: OnceLock<Obs> = OnceLock::new();

/// Initialize the global pipeline (idempotent: the first call sizes the
/// slots and rings; later calls only update the level). All storage is
/// allocated here, so recording afterwards never touches the heap.
pub fn init(cfg: ObsConfig) -> &'static Obs {
    let obs = OBS.get_or_init(|| Obs {
        metrics: Registry::new(cfg.shards),
        spans: SpanSink::new(cfg.shards, cfg.span_capacity),
    });
    set_level(cfg.level);
    obs
}

/// Change the recording level of the (possibly uninitialized) pipeline.
/// The level is mirrored into the `obs_level` gauge unconditionally (a
/// snapshot should say what produced it, even one taken at `Off`).
pub fn set_level(level: ObsLevel) {
    LEVEL.store(level as u8, Ordering::Relaxed);
    if let Some(o) = OBS.get() {
        o.metrics.gauge_set(id::G_OBS_LEVEL, level as u64);
    }
}

/// The current recording level.
#[inline]
pub fn level() -> ObsLevel {
    ObsLevel::from_u8(LEVEL.load(Ordering::Relaxed))
}

/// Fast check: metrics (and possibly spans) armed?
#[inline]
pub fn metrics_on() -> bool {
    LEVEL.load(Ordering::Relaxed) >= ObsLevel::Metrics as u8
}

/// Fast check: span capture armed?
#[inline]
pub fn spans_on() -> bool {
    LEVEL.load(Ordering::Relaxed) >= ObsLevel::Spans as u8
}

/// The global pair, if [`init`] has run.
pub fn get() -> Option<&'static Obs> {
    OBS.get()
}

/// Add `v` to counter `c` (see [`id`]) when metrics are armed.
#[inline]
pub fn counter_add(c: usize, v: u64) {
    if metrics_on() {
        if let Some(o) = OBS.get() {
            o.metrics.counter_add(c, v);
        }
    }
}

/// Set gauge `g` to `v` when metrics are armed.
#[inline]
pub fn gauge_set(g: usize, v: u64) {
    if metrics_on() {
        if let Some(o) = OBS.get() {
            o.metrics.gauge_set(g, v);
        }
    }
}

/// Record `ns` into histogram `h` when metrics are armed.
#[inline]
pub fn hist_record_ns(h: usize, ns: u64) {
    if metrics_on() {
        if let Some(o) = OBS.get() {
            o.metrics.hist_record(h, ns);
        }
    }
}

/// Record `secs` (converted to whole nanoseconds) into histogram `h`.
#[inline]
pub fn hist_record_secs(h: usize, secs: f64) {
    if metrics_on() {
        hist_record_ns(h, (secs.max(0.0) * 1e9) as u64);
    }
}

/// Open a caller-owned span guard on the process clock; the record is
/// stamped when the guard drops. Disarmed (no clock read) below
/// [`ObsLevel::Spans`].
#[inline]
pub fn span(span_id: usize) -> Span {
    Span::open(span_id, spans_on(), None)
}

/// Open a span guard that also records its duration into histogram
/// `hist` from [`ObsLevel::Metrics`] on: one clock-read pair times both
/// the ring record and the histogram. Disarmed at [`ObsLevel::Off`].
#[inline]
pub fn timed_span(span_id: usize, hist: usize) -> Span {
    Span::open(span_id, spans_on(), metrics_on().then_some(hist))
}

/// [`timed_span`] of a phase: its span and its histogram, both at id
/// `phase as usize`.
#[inline]
pub fn phase_span(phase: Phase) -> Span {
    timed_span(phase as usize, phase as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parses_and_orders() {
        assert_eq!("off".parse::<ObsLevel>().unwrap(), ObsLevel::Off);
        assert_eq!("metrics".parse::<ObsLevel>().unwrap(), ObsLevel::Metrics);
        assert_eq!("spans".parse::<ObsLevel>().unwrap(), ObsLevel::Spans);
        assert!("verbose".parse::<ObsLevel>().is_err());
        assert!(ObsLevel::Off < ObsLevel::Metrics);
        assert!(ObsLevel::Metrics < ObsLevel::Spans);
        assert_eq!(ObsLevel::Spans.to_string(), "spans");
    }

    /// One test drives the whole global pipeline: the level atomic, init
    /// idempotence, and the gated recording paths. (A single test on
    /// purpose — the global is process-wide, and parallel tests would
    /// race on it. Instance-level behavior is covered in the module
    /// tests, which construct their own registries and sinks.)
    #[test]
    fn global_pipeline_gates_by_level() {
        assert_eq!(level(), ObsLevel::Off);
        // Off + uninitialized: recording is a no-op, not a panic.
        counter_add(id::C_DKV_READ_BATCHES, 1);
        drop(span(id::S_STEP));

        // Sized for spans, recording metrics only.
        let obs = init(ObsConfig::at(ObsLevel::Spans));
        set_level(ObsLevel::Metrics);
        counter_add(id::C_DKV_READ_BATCHES, 2);
        hist_record_secs(id::H_STEP_NS, 1e-6);
        gauge_set(id::G_WORKERS, 7);
        assert_eq!(obs.metrics.counter_total(id::C_DKV_READ_BATCHES), 2);
        assert_eq!(obs.metrics.hist_count(id::H_STEP_NS), 1);
        assert_eq!(obs.metrics.gauge(id::G_WORKERS), 7);
        // Spans stay disarmed at Metrics.
        drop(span(id::S_STEP));
        assert_eq!(obs.spans.len(), 0);

        set_level(ObsLevel::Spans);
        {
            let _g = span(Phase::UpdatePhi as usize);
        }
        drop(span(id::S_STEP));
        assert_eq!(obs.spans.len(), 2);

        // Re-init keeps the same storage but may change the level.
        let again = init(ObsConfig::at(ObsLevel::Off));
        assert!(std::ptr::eq(obs, again));
        counter_add(id::C_DKV_READ_BATCHES, 99);
        assert_eq!(obs.metrics.counter_total(id::C_DKV_READ_BATCHES), 2);
    }
}
