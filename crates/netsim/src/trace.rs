//! Per-phase time accounting.
//!
//! The paper's evaluation (Figure 1, Table III) reports the cumulative time
//! of each pipeline stage per iteration. [`PhaseTimes`] is the accumulator
//! the samplers feed, and [`TraceReport`] renders the same row set as
//! Table III.

/// The stages of one distributed SG-MCMC iteration (paper §III-C/D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Master draws the mini-batch (and samples strata).
    DrawMinibatch,
    /// Master scatters mini-batch vertices + adjacency rows to workers.
    DeployMinibatch,
    /// Workers sample neighbor sets `V_n`.
    SampleNeighbors,
    /// Workers load `pi` rows from the DKV store (sub-stage of update_phi).
    LoadPi,
    /// Workers compute the `phi` updates (sub-stage of update_phi).
    UpdatePhi,
    /// Workers normalize and write back `pi` (+ sum of phi).
    UpdatePi,
    /// Gradient + reduce + broadcast for the global parameters.
    UpdateBetaTheta,
    /// Held-out perplexity evaluation.
    Perplexity,
    /// Barrier / synchronization waiting time.
    Barrier,
    /// Measured wall-clock of the real double-buffered load/compute
    /// overlap (`ChunkReader` under `PipelineMode::Double`) — the
    /// *measured* counterpart of the
    /// modeled `LoadPi` + `UpdatePhi` pair.
    Prefetch,
    /// Fault-recovery overhead: retry backoff, re-issued loads/stores,
    /// straggler re-execution, and re-partitioning after a worker loss.
    /// Zero on a healthy run.
    Recovery,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 11] = [
        Phase::DrawMinibatch,
        Phase::DeployMinibatch,
        Phase::SampleNeighbors,
        Phase::LoadPi,
        Phase::UpdatePhi,
        Phase::UpdatePi,
        Phase::UpdateBetaTheta,
        Phase::Perplexity,
        Phase::Barrier,
        Phase::Prefetch,
        Phase::Recovery,
    ];

    /// Human-readable stage name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            Phase::DrawMinibatch => "draw mini-batch",
            Phase::DeployMinibatch => "deploy mini-batch",
            Phase::SampleNeighbors => "sample neighbors",
            Phase::LoadPi => "load pi",
            Phase::UpdatePhi => "update phi",
            Phase::UpdatePi => "update pi",
            Phase::UpdateBetaTheta => "update beta/theta",
            Phase::Perplexity => "perplexity",
            Phase::Barrier => "barrier",
            Phase::Prefetch => "prefetch (measured)",
            Phase::Recovery => "recovery",
        }
    }

    fn index(self) -> usize {
        Phase::ALL.iter().position(|&p| p == self).expect("phase in ALL")
    }
}

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
        self.seconds[phase.index()] += seconds;
        self.counts[phase.index()] += 1;
    }

    /// Total seconds recorded for a phase.
    pub fn total(&self, phase: Phase) -> f64 {
        self.seconds[phase.index()]
    }

    /// Number of `add` calls for a phase.
    pub fn count(&self, phase: Phase) -> u64 {
        self.counts[phase.index()]
    }

    /// Sum of all phase times.
    pub fn grand_total(&self) -> f64 {
        self.seconds.iter().sum()
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &PhaseTimes) {
        for i in 0..Phase::ALL.len() {
            self.seconds[i] += other.seconds[i];
            self.counts[i] += other.counts[i];
        }
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
        writeln!(
            f,
            "{:<20} {:>12} {:>10}",
            "stage", "ms/iter", "calls"
        )?;
        writeln!(f, "{:<20} {:>12.2} {:>10}", "total", self.total_ms_per_iter(), self.iterations)?;
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
        assert!((t.grand_total() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = PhaseTimes::new();
        a.add(Phase::UpdatePi, 1.0);
        let mut b = PhaseTimes::new();
        b.add(Phase::UpdatePi, 2.0);
        b.add(Phase::Barrier, 0.5);
        a.merge(&b);
        assert!((a.total(Phase::UpdatePi) - 3.0).abs() < 1e-12);
        assert_eq!(a.count(Phase::UpdatePi), 2);
        assert!((a.total(Phase::Barrier) - 0.5).abs() < 1e-12);
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
