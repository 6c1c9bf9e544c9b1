//! Bridge between the netsim virtual-time [`Phase`] trace and the obs
//! span/metric pipeline.
//!
//! The simulator accounts time per [`Phase`] on a virtual clock; the obs
//! subsystem accounts real time per span, and a phase's span is span id
//! `phase as usize` in both. This module lays a finished virtual-time
//! trace onto the obs span sink, so `bench_faults`' recovery breakdown
//! and a chrome-trace export of the same run show identical stage
//! boundaries.

use crate::trace::{Phase, TraceReport};

/// Re-emit a finished virtual-time trace into the global obs span sink
/// (no-op below `ObsLevel::Spans`). See [`emit_trace_into`].
pub fn emit_trace_as_spans(report: &TraceReport) {
    if let Some(obs) = mmsb_obs::get() {
        if mmsb_obs::spans_on() {
            emit_trace_into(report, &obs.spans);
        }
    }
}

/// Lay one span per active phase (span id `p as usize`) on the reserved
/// virtual-timeline tid ([`mmsb_obs::VIRTUAL_TID`], so the modeled
/// timeline never interleaves with wall-clock worker spans), contiguously in `Phase::ALL` order,
/// with virtual seconds converted to nanoseconds. The per-phase
/// durations equal `report.phases.total(p)` exactly, so the chrome
/// trace shows the same stage boundaries as the printed breakdown.
pub fn emit_trace_into(report: &TraceReport, sink: &mmsb_obs::SpanSink) {
    let mut cursor_ns = 0u64;
    for p in Phase::ALL {
        if report.phases.count(p) == 0 {
            continue;
        }
        let dur_ns = (report.phases.total(p).max(0.0) * 1e9) as u64;
        sink.record(p as u64, mmsb_obs::VIRTUAL_TID, cursor_ns, dur_ns);
        cursor_ns += dur_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::PhaseTimes;

    #[test]
    fn emitted_spans_match_breakdown_and_are_contiguous() {
        let mut phases = PhaseTimes::new();
        phases.add(Phase::DrawMinibatch, 0.5);
        phases.add(Phase::UpdatePhi, 1.25);
        phases.add(Phase::UpdatePhi, 0.75);
        phases.add(Phase::Recovery, 0.25);
        let report = TraceReport {
            phases,
            iterations: 2,
            total_seconds: 2.75,
        };
        let sink = mmsb_obs::SpanSink::new(1, 16);
        emit_trace_into(&report, &sink);
        let spans = sink.snapshot();
        // One span per *active* phase, in pipeline order.
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].span_id, Phase::DrawMinibatch as u64);
        assert_eq!(spans[1].span_id, Phase::UpdatePhi as u64);
        assert_eq!(spans[2].span_id, Phase::Recovery as u64);
        // Durations equal the breakdown totals (virtual secs -> ns).
        assert_eq!(spans[0].dur_ns, 500_000_000);
        assert_eq!(spans[1].dur_ns, 2_000_000_000);
        assert_eq!(spans[2].dur_ns, 250_000_000);
        // All on the reserved virtual track, never a worker tid.
        assert!(spans.iter().all(|s| s.tid == mmsb_obs::VIRTUAL_TID));
        // Contiguous timeline: each span starts where the previous ends.
        assert_eq!(spans[0].start_ns, 0);
        for w in spans.windows(2) {
            assert_eq!(w[1].start_ns, w[0].start_ns + w[0].dur_ns);
        }
        // And the exported chrome trace validates.
        let events =
            mmsb_obs::export::parse_chrome_trace(&mmsb_obs::export::chrome_trace_json(&spans))
                .unwrap();
        mmsb_obs::export::validate_trace(&events).unwrap();
        assert!(events.iter().any(|e| e.name == "update_phi"));
    }
}
