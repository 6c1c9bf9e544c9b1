//! Per-rank virtual clocks.
//!
//! Each simulated rank owns a [`VirtualClock`] that accumulates *modeled*
//! communication time and *counted* compute time (work done × a
//! per-operation price). A barrier synchronizes
//! all clocks to the maximum (every rank waits for the slowest) plus the
//! modeled cost of the barrier itself — exactly the timing semantics of a
//! bulk-synchronous MPI program.

/// A monotonically advancing virtual time, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct VirtualClock {
    now: f64,
}

impl VirtualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current time in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advance by `seconds`.
    ///
    /// # Panics
    /// Panics on negative or NaN increments — those always indicate a bug
    /// in a cost model.
    #[inline]
    pub fn advance(&mut self, seconds: f64) {
        assert!(
            seconds >= 0.0 && !seconds.is_nan(),
            "clock advanced by invalid amount {seconds}"
        );
        self.now += seconds;
    }

    /// Move the clock forward to `t` if `t` is later; no-op otherwise.
    #[inline]
    pub fn advance_to(&mut self, t: f64) {
        if t > self.now {
            self.now = t;
        }
    }
}

/// The clocks of a whole simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterClocks {
    clocks: Vec<VirtualClock>,
}

impl ClusterClocks {
    /// Create `ranks` clocks at time zero.
    ///
    /// # Panics
    /// Panics if `ranks == 0`.
    pub fn new(ranks: usize) -> Self {
        assert!(ranks > 0, "cluster needs at least one rank");
        Self {
            clocks: vec![VirtualClock::new(); ranks],
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.clocks.len()
    }

    /// Current time of one rank.
    #[inline]
    pub fn now(&self, rank: usize) -> f64 {
        self.clocks[rank].now()
    }

    /// Advance one rank's clock.
    #[inline]
    pub fn advance(&mut self, rank: usize, seconds: f64) {
        self.clocks[rank].advance(seconds);
    }

    /// The latest time across all ranks — the cluster's makespan.
    pub fn max(&self) -> f64 {
        self.clocks
            .iter()
            .map(VirtualClock::now)
            .fold(0.0, f64::max)
    }

    /// Synchronize: every clock jumps to `max() + cost`. Returns the new
    /// common time.
    pub fn barrier(&mut self, cost: f64) -> f64 {
        let t = self.max() + cost;
        for c in &mut self.clocks {
            c.advance_to(t);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances() {
        let mut c = VirtualClock::new();
        assert_eq!(c.now(), 0.0);
        c.advance(1.5);
        c.advance(0.5);
        assert_eq!(c.now(), 2.0);
        c.advance_to(1.0); // earlier: no-op
        assert_eq!(c.now(), 2.0);
        c.advance_to(3.0);
        assert_eq!(c.now(), 3.0);
    }

    #[test]
    #[should_panic(expected = "invalid amount")]
    fn negative_advance_panics() {
        VirtualClock::new().advance(-1.0);
    }

    #[test]
    #[should_panic(expected = "invalid amount")]
    fn nan_advance_panics() {
        VirtualClock::new().advance(f64::NAN);
    }

    #[test]
    fn barrier_syncs_to_slowest() {
        let mut cc = ClusterClocks::new(3);
        cc.advance(0, 1.0);
        cc.advance(1, 5.0);
        cc.advance(2, 2.0);
        let t = cc.barrier(0.1);
        assert!((t - 5.1).abs() < 1e-12);
        for r in 0..3 {
            assert!((cc.now(r) - 5.1).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        ClusterClocks::new(0);
    }

    #[test]
    fn makespan_is_max() {
        let mut cc = ClusterClocks::new(4);
        cc.advance(2, 7.0);
        assert_eq!(cc.max(), 7.0);
    }
}
