//! Per-phase time accounting.
//!
//! The paper's evaluation (Figure 1, Table III) reports the cumulative time
//! of each pipeline stage per iteration. [`PhaseTimes`] is the accumulator
//! the samplers feed, and [`TraceReport`] renders the same row set as
//! Table III.

/// The stages of one distributed SG-MCMC iteration: the one phase list,
/// defined beside the obs id tables it indexes.
pub use mmsb_obs::Phase;

/// Accumulated wall/virtual time and invocation counts per phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseTimes {
    seconds: [f64; Phase::ALL.len()],
    counts: [u64; Phase::ALL.len()],
}

impl PhaseTimes {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `seconds` spent in `phase`.
    pub fn add(&mut self, phase: Phase, seconds: f64) {
        assert!(
            seconds >= 0.0 && !seconds.is_nan(),
            "invalid phase time {seconds} for {phase:?}"
        );
        self.seconds[phase as usize] += seconds;
        self.counts[phase as usize] += 1;
    }

    /// Total seconds recorded for a phase.
    pub fn total(&self, phase: Phase) -> f64 {
        self.seconds[phase as usize]
    }

    /// Number of `add` calls for a phase.
    pub fn count(&self, phase: Phase) -> u64 {
        self.counts[phase as usize]
    }
}

/// A finished trace: phase totals plus the iteration count and the
/// end-to-end time (which can be *less* than the sum of phases when
/// pipelining overlaps them — the effect Table III shows).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Per-phase accounting.
    pub phases: PhaseTimes,
    /// Number of sampler iterations the trace covers.
    pub iterations: u64,
    /// End-to-end (virtual) time in seconds.
    pub total_seconds: f64,
}

impl TraceReport {
    /// Milliseconds per iteration for one phase — the unit of Table III.
    pub fn ms_per_iter(&self, phase: Phase) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            1e3 * self.phases.total(phase) / self.iterations as f64
        }
    }

    /// End-to-end milliseconds per iteration.
    pub fn total_ms_per_iter(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            1e3 * self.total_seconds / self.iterations as f64
        }
    }
}

impl std::fmt::Display for TraceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{:<20} {:>12} {:>10}", "stage", "ms/iter", "calls")?;
        writeln!(
            f,
            "{:<20} {:>12.2} {:>10}",
            "total",
            self.total_ms_per_iter(),
            self.iterations
        )?;
        for p in Phase::ALL {
            if self.phases.count(p) > 0 {
                writeln!(
                    f,
                    "{:<20} {:>12.2} {:>10}",
                    p.name(),
                    self.ms_per_iter(p),
                    self.phases.count(p)
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_totals() {
        let mut t = PhaseTimes::new();
        t.add(Phase::LoadPi, 0.2);
        t.add(Phase::LoadPi, 0.3);
        t.add(Phase::UpdatePhi, 0.1);
        assert!((t.total(Phase::LoadPi) - 0.5).abs() < 1e-12);
        assert_eq!(t.count(Phase::LoadPi), 2);
        assert_eq!(t.count(Phase::Barrier), 0);
    }

    #[test]
    #[should_panic(expected = "invalid phase time")]
    fn negative_time_panics() {
        PhaseTimes::new().add(Phase::Barrier, -1.0);
    }

    #[test]
    fn report_per_iteration_math() {
        let mut phases = PhaseTimes::new();
        phases.add(Phase::UpdatePhi, 2.0);
        let r = TraceReport {
            phases,
            iterations: 1000,
            total_seconds: 2.5,
        };
        assert!((r.ms_per_iter(Phase::UpdatePhi) - 2.0).abs() < 1e-9);
        assert!((r.total_ms_per_iter() - 2.5).abs() < 1e-9);
        assert_eq!(r.ms_per_iter(Phase::Barrier), 0.0);
    }

    #[test]
    fn report_zero_iterations_is_defined() {
        let r = TraceReport {
            phases: PhaseTimes::new(),
            iterations: 0,
            total_seconds: 0.0,
        };
        assert_eq!(r.total_ms_per_iter(), 0.0);
    }

    #[test]
    fn display_lists_active_phases_only() {
        let mut phases = PhaseTimes::new();
        phases.add(Phase::LoadPi, 1.0);
        let r = TraceReport {
            phases,
            iterations: 10,
            total_seconds: 1.0,
        };
        let s = r.to_string();
        assert!(s.contains("load pi"));
        assert!(!s.contains("perplexity"));
        assert!(s.contains("total"));
    }

    #[test]
    fn phase_names_are_unique() {
        let names: std::collections::HashSet<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), Phase::ALL.len());
    }
}
