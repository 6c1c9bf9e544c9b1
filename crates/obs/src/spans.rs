//! Span tracing into fixed-capacity per-thread ring buffers.
//!
//! Each shard owns a flat ring of `(span_id, tid, start_ns, dur_ns)`
//! quads in `AtomicU64` slots, sized once at construction. Recording is
//! a cursor `fetch_add` plus four relaxed stores; when a ring is full,
//! further records on that shard are dropped and counted — the buffers
//! never grow, which is what keeps the warmed sampler step
//! allocation-free with span capture armed.

use crate::clock;
use crate::metrics::thread_shard;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Words per span record in the ring: span_id, tid, start_ns, dur_ns.
const REC_WORDS: usize = 4;

/// Reserved tid for spans on a *virtual* (modeled) timeline, e.g. the
/// netsim phase trace re-emitted after a simulated run. Keeping it off
/// every real worker tid means virtual and wall-clock spans never
/// interleave on one chrome-trace track, so nesting validation holds
/// for both independently. Small enough to survive a JSON `f64`
/// round-trip exactly, far above any worker id or shard index.
pub const VIRTUAL_TID: u64 = 1_000_000;

/// One captured span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span identifier (see `metrics::id::SPAN_NAMES`).
    pub span_id: u64,
    /// Logical thread id — pool worker id where known, else the
    /// process-wide thread shard index.
    pub tid: u64,
    /// Start, nanoseconds on the span's timeline (process clock for
    /// guard spans, virtual time for re-emitted netsim phases).
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

thread_local! {
    static SPAN_TID: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// Pin this thread's span tid (pool workers set their worker id so
/// spans group per worker in trace viewers). Returns the previous
/// value for restoration.
pub fn set_tid(tid: u64) -> u64 {
    SPAN_TID.with(|t| t.replace(tid))
}

/// This thread's span tid: the pinned value, else the thread shard.
#[inline]
pub fn current_tid() -> u64 {
    SPAN_TID.with(|t| {
        let v = t.get();
        if v != u64::MAX {
            v
        } else {
            thread_shard() as u64
        }
    })
}

/// Fixed-capacity sharded span storage.
#[derive(Debug)]
pub struct SpanSink {
    shards: usize,
    cap: usize,
    /// `shards × cap × REC_WORDS`, shard-major.
    rec: Vec<AtomicU64>,
    /// Per-shard monotonically increasing record cursors. A cursor past
    /// `cap` counts records that were dropped on the floor.
    cursors: Vec<AtomicU64>,
}

impl SpanSink {
    /// A sink with `shards` rings of `cap` records each (minimum 1×1).
    pub fn new(shards: usize, cap: usize) -> Self {
        let shards = shards.max(1);
        let cap = cap.max(1);
        let mut rec = Vec::with_capacity(shards * cap * REC_WORDS);
        rec.resize_with(shards * cap * REC_WORDS, || AtomicU64::new(0));
        let mut cursors = Vec::with_capacity(shards);
        cursors.resize_with(shards, || AtomicU64::new(0));
        Self {
            shards,
            cap,
            rec,
            cursors,
        }
    }

    /// Per-shard ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Record one span into this thread's ring. Lock-free and
    /// allocation-free; drops (and counts) when the ring is full.
    #[inline]
    pub fn record(&self, span_id: u64, tid: u64, start_ns: u64, dur_ns: u64) {
        let shard = thread_shard() % self.shards;
        let i = self.cursors[shard].fetch_add(1, Ordering::Relaxed) as usize;
        if i >= self.cap {
            return; // full: the cursor past cap is the drop count
        }
        let base = (shard * self.cap + i) * REC_WORDS;
        self.rec[base].store(span_id, Ordering::Relaxed);
        self.rec[base + 1].store(tid, Ordering::Relaxed);
        self.rec[base + 2].store(start_ns, Ordering::Relaxed);
        self.rec[base + 3].store(dur_ns, Ordering::Relaxed);
    }

    /// Records currently held (drops excluded).
    pub fn len(&self) -> usize {
        (0..self.shards)
            .map(|s| (self.cursors[s].load(Ordering::Relaxed) as usize).min(self.cap))
            .sum()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records dropped because their ring was full.
    pub fn dropped(&self) -> u64 {
        (0..self.shards)
            .map(|s| {
                self.cursors[s]
                    .load(Ordering::Relaxed)
                    .saturating_sub(self.cap as u64)
            })
            .sum()
    }

    /// Copy out all held records, sorted by start time (ties broken by
    /// duration descending so enclosing spans precede their children —
    /// the order the exporter and nesting validator expect).
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut out = Vec::with_capacity(self.len());
        for s in 0..self.shards {
            let held = (self.cursors[s].load(Ordering::Relaxed) as usize).min(self.cap);
            for i in 0..held {
                let base = (s * self.cap + i) * REC_WORDS;
                out.push(SpanRecord {
                    span_id: self.rec[base].load(Ordering::Relaxed),
                    tid: self.rec[base + 1].load(Ordering::Relaxed),
                    start_ns: self.rec[base + 2].load(Ordering::Relaxed),
                    dur_ns: self.rec[base + 3].load(Ordering::Relaxed),
                });
            }
        }
        out.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.dur_ns.cmp(&a.dur_ns)));
        out
    }

    /// Reset all rings to empty (cursor rewind; slots are overwritten on
    /// the next record). Not for the hot path.
    pub fn clear(&self) {
        for c in &self.cursors {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// Caller-owned span guard, and the one timer of a region that has both
/// a span and a histogram. It reads the clock at open and at drop; from
/// that one pair it stamps a record into the *global* sink and, when it
/// has a histogram, records the same duration there. Construct through
/// [`crate::span`], [`crate::timed_span`] or [`crate::phase_span`], which
/// arm the record only at `ObsLevel::Spans` and the histogram from
/// `ObsLevel::Metrics` — a guard with neither armed never reads the
/// clock.
#[derive(Debug)]
pub struct Span {
    span_id: usize,
    hist: Option<usize>,
    start_ns: u64,
    ring: bool,
}

impl Span {
    /// An open span that stamps a ring record on drop when `ring` is set
    /// and records its duration into histogram `hist` when that is
    /// `Some`; with neither it is a free no-op guard.
    #[inline]
    pub fn open(span_id: usize, ring: bool, hist: Option<usize>) -> Self {
        Self {
            span_id,
            hist,
            start_ns: if ring || hist.is_some() {
                clock::now_ns()
            } else {
                0
            },
            ring,
        }
    }

    /// Record into histogram `hist` instead of the one given at open —
    /// for a region whose histogram is known only part-way through (a
    /// request's endpoint, once routed). No-op on a guard that records no
    /// histogram.
    #[inline]
    pub fn set_hist(&mut self, hist: usize) {
        if let Some(h) = &mut self.hist {
            *h = hist;
        }
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if !self.ring && self.hist.is_none() {
            return;
        }
        if let Some(o) = crate::get() {
            let dur = clock::now_ns().saturating_sub(self.start_ns);
            if self.ring {
                o.spans
                    .record(self.span_id as u64, current_tid(), self.start_ns, dur);
            }
            if let Some(h) = self.hist {
                o.metrics.hist_record(h, dur);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_and_snapshot_sorts() {
        let sink = SpanSink::new(1, 8);
        sink.record(2, 0, 100, 10);
        sink.record(1, 0, 50, 200);
        sink.record(3, 1, 50, 20);
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 0);
        let snap = sink.snapshot();
        // Sorted by start; at start=50 the longer (enclosing) span first.
        assert_eq!(
            snap[0],
            SpanRecord {
                span_id: 1,
                tid: 0,
                start_ns: 50,
                dur_ns: 200
            }
        );
        assert_eq!(
            snap[1],
            SpanRecord {
                span_id: 3,
                tid: 1,
                start_ns: 50,
                dur_ns: 20
            }
        );
        assert_eq!(
            snap[2],
            SpanRecord {
                span_id: 2,
                tid: 0,
                start_ns: 100,
                dur_ns: 10
            }
        );
    }

    #[test]
    fn overflow_drops_and_counts_without_growing() {
        let sink = SpanSink::new(1, 4);
        for i in 0..10u64 {
            sink.record(i, 0, i, 1);
        }
        assert_eq!(sink.len(), 4);
        assert_eq!(sink.dropped(), 6);
        // The held records are the first four (drop-newest).
        let ids: Vec<u64> = sink.snapshot().iter().map(|r| r.span_id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);

        sink.clear();
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 0);
        sink.record(42, 7, 5, 5);
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.snapshot()[0].span_id, 42);
    }

    #[test]
    fn tid_pinning_overrides_shard_default() {
        let prev = set_tid(17);
        assert_eq!(current_tid(), 17);
        set_tid(prev);
    }

    #[test]
    fn disarmed_guard_is_a_no_op() {
        // No global init in this test; an armed guard would still find
        // OBS unset and skip, but a disarmed one must not even read the
        // clock — we can only assert it drops cleanly.
        let g = Span::open(3, false, None);
        drop(g);
    }
}
