//! Seeded, deterministic fault injection and the recovery policy.
//!
//! A [`FaultPlan`] answers "does this operation fail?" for every
//! fault site of the simulated cluster — DKV reads/writes, point-to-point
//! messages, per-iteration compute (stragglers), and whole-worker loss.
//! Decisions are **pure functions of the seed and the site coordinates**
//! (rank, iteration, sequence number, attempt): the plan keeps no
//! counters, so two runs that ask the same questions get the same answers
//! regardless of call order, and a run that *skips* questions (e.g. a
//! resumed run) still sees the identical fault schedule from the point it
//! resumes. That property is what makes "same seed + same plan =>
//! bitwise-identical chain" checkable.
//!
//! The [`RecoveryPolicy`] is the other half: bounded retry with
//! exponential backoff plus deterministic jitter, per-stage timeouts for
//! collectives, and a straggler-detection threshold with a modeled
//! re-issue cost. The distributed sampler charges every recovered fault
//! to the owning rank's virtual clock and to the `Phase::Recovery` trace
//! row, leaving the *data* path untouched — recoverable faults change
//! time, never values.

use mmsb_rand::{RngCore, SplitMix64};

/// Probabilities and magnitudes of each injected fault class.
///
/// All probabilities are in `[0, 1]`; zero disables the class. The
/// default ([`FaultConfig::none`]) injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault schedule (independent of the sampler seed).
    pub seed: u64,
    /// Probability a DKV chunk read fails and must be re-issued.
    pub read_fail: f64,
    /// Probability a DKV chunk read is served slowly (no retry needed).
    pub read_slow: f64,
    /// Probability a DKV write batch fails and must be re-issued.
    pub write_fail: f64,
    /// Slowdown factor applied by a "slow" read (>= 1).
    pub slow_factor: f64,
    /// Probability a point-to-point message is dropped on first send.
    pub msg_drop: f64,
    /// Probability a message is duplicated by the fabric.
    pub msg_duplicate: f64,
    /// Probability a message is delayed by [`FaultConfig::delay_seconds`].
    pub msg_delay: f64,
    /// Extra in-flight time of a delayed message, in seconds.
    pub delay_seconds: f64,
    /// Probability a worker straggles for one iteration.
    pub straggler: f64,
    /// Compute slowdown factor of a straggling worker (>= 1).
    pub straggler_factor: f64,
    /// Permanently kill worker `.1` at the start of iteration `.0`.
    pub kill_worker: Option<(u64, usize)>,
}

impl FaultConfig {
    /// A plan that injects nothing (useful as a baseline).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            read_fail: 0.0,
            read_slow: 0.0,
            write_fail: 0.0,
            slow_factor: 4.0,
            msg_drop: 0.0,
            msg_duplicate: 0.0,
            msg_delay: 0.0,
            delay_seconds: 0.0,
            straggler: 0.0,
            straggler_factor: 8.0,
            kill_worker: None,
        }
    }

    /// A moderately hostile but fully *recoverable* schedule: transient
    /// read/write failures, slow reads, lossy/duplicating/delaying
    /// fabric, and occasional stragglers — no permanent worker loss.
    pub fn transient(seed: u64) -> Self {
        Self {
            seed,
            read_fail: 0.05,
            read_slow: 0.10,
            write_fail: 0.05,
            slow_factor: 4.0,
            msg_drop: 0.10,
            msg_duplicate: 0.05,
            msg_delay: 0.10,
            delay_seconds: 2e-3,
            straggler: 0.10,
            straggler_factor: 8.0,
            kill_worker: None,
        }
    }

    /// Kill worker `rank` permanently at the start of `iteration`.
    pub fn with_kill(mut self, iteration: u64, rank: usize) -> Self {
        self.kill_worker = Some((iteration, rank));
        self
    }

    fn validate(&self) {
        for (name, p) in [
            ("read_fail", self.read_fail),
            ("read_slow", self.read_slow),
            ("write_fail", self.write_fail),
            ("msg_drop", self.msg_drop),
            ("msg_duplicate", self.msg_duplicate),
            ("msg_delay", self.msg_delay),
            ("straggler", self.straggler),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} = {p} outside [0, 1]");
        }
        assert!(self.slow_factor >= 1.0, "slow_factor must be >= 1");
        assert!(
            self.straggler_factor >= 1.0,
            "straggler_factor must be >= 1"
        );
        assert!(self.delay_seconds >= 0.0, "delay must be non-negative");
    }
}

/// A DKV-side fault decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DkvFault {
    /// The operation fails outright; the caller must retry.
    Fail,
    /// The operation succeeds but takes `factor` times as long.
    Slow(f64),
}

/// A message-fabric fault decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MsgFault {
    /// The message is lost; the sender's retry layer must re-send.
    Drop,
    /// The message arrives twice; the receiver must deduplicate.
    Duplicate,
    /// The message arrives `seconds` late.
    Delay(f64),
}

/// Distinct site constants so the same `(a, b, c)` coordinates at
/// different fault sites draw independent decisions.
const SITE_READ: u64 = 0x52_45_41_44; // "READ"
const SITE_WRITE: u64 = 0x57_52_49_54; // "WRIT"
const SITE_MSG: u64 = 0x4d_53_47_5f; // "MSG_"
const SITE_STRAGGLER: u64 = 0x53_4c_4f_57; // "SLOW"
const SITE_JITTER: u64 = 0x4a_49_54_52; // "JITR"

/// The deterministic fault schedule derived from a [`FaultConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    cfg: FaultConfig,
}

impl FaultPlan {
    /// Build the plan (validates the config).
    ///
    /// # Panics
    /// Panics if any probability is outside `[0, 1]` or a factor is < 1.
    pub fn new(cfg: FaultConfig) -> Self {
        cfg.validate();
        Self { cfg }
    }

    /// The underlying configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// A uniform draw in `[0, 1)` that is a pure function of
    /// `(seed, site, a, b, c)`.
    fn decision(&self, site: u64, a: u64, b: u64, c: u64) -> f64 {
        let mut sm = SplitMix64::new(self.cfg.seed ^ site.rotate_left(17));
        let x = sm.next_u64();
        let mut sm = SplitMix64::new(x ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let y = sm.next_u64();
        let mut sm = SplitMix64::new(y ^ b.rotate_left(32) ^ c);
        // 53 random bits into [0, 1).
        (sm.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fault decision for chunk `chunk` of rank `rank`'s reads in
    /// iteration `iteration`, on retry `attempt` (0 = first try).
    /// Retries of a failed chunk draw fresh decisions, so a chunk can
    /// fail more than once before succeeding.
    pub fn read_fault(
        &self,
        rank: usize,
        iteration: u64,
        chunk: usize,
        attempt: u32,
    ) -> Option<DkvFault> {
        let u = self.decision(
            SITE_READ,
            iteration,
            ((rank as u64) << 32) | chunk as u64,
            attempt as u64,
        );
        if u < self.cfg.read_fail {
            Some(DkvFault::Fail)
        } else if u < self.cfg.read_fail + self.cfg.read_slow {
            Some(DkvFault::Slow(self.cfg.slow_factor))
        } else {
            None
        }
    }

    /// Fault decision for rank `rank`'s write batch in `iteration`,
    /// retry `attempt`.
    pub fn write_fault(&self, rank: usize, iteration: u64, attempt: u32) -> Option<DkvFault> {
        let u = self.decision(SITE_WRITE, iteration, rank as u64, attempt as u64);
        if u < self.cfg.write_fail {
            Some(DkvFault::Fail)
        } else {
            None
        }
    }

    /// Fabric fault for the `seq`-th message from `from` to `to`.
    pub fn message_fault(&self, from: usize, to: usize, seq: u64) -> Option<MsgFault> {
        let u = self.decision(SITE_MSG, ((from as u64) << 32) | to as u64, seq, 0);
        if u < self.cfg.msg_drop {
            Some(MsgFault::Drop)
        } else if u < self.cfg.msg_drop + self.cfg.msg_duplicate {
            Some(MsgFault::Duplicate)
        } else if u < self.cfg.msg_drop + self.cfg.msg_duplicate + self.cfg.msg_delay {
            Some(MsgFault::Delay(self.cfg.delay_seconds))
        } else {
            None
        }
    }

    /// Straggler factor for `rank` in `iteration` (`None` = healthy).
    pub fn straggler(&self, iteration: u64, rank: usize) -> Option<f64> {
        let u = self.decision(SITE_STRAGGLER, iteration, rank as u64, 0);
        (u < self.cfg.straggler).then_some(self.cfg.straggler_factor)
    }

    /// The worker (if any) that dies permanently at the start of
    /// `iteration`.
    pub fn kill_at(&self, iteration: u64) -> Option<usize> {
        match self.cfg.kill_worker {
            Some((it, rank)) if it == iteration => Some(rank),
            _ => None,
        }
    }

    /// Deterministic jitter draw in `[0, 1)` for backoff randomization,
    /// keyed by an arbitrary site hash and the attempt number.
    pub fn jitter(&self, site: u64, attempt: u32) -> f64 {
        self.decision(SITE_JITTER, site, attempt as u64, 0)
    }
}

/// Bounded-retry / timeout / straggler-handling parameters.
///
/// Backoff for attempt `a` (0-based, after the `a`-th failure) is
/// `min(base * factor^a, max) * (1 + jitter_frac * u)` with `u` a
/// deterministic jitter draw from the fault plan — so the modeled
/// recovery time is reproducible run-to-run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Maximum retries after the first attempt before giving up.
    pub max_retries: u32,
    /// First backoff interval, seconds.
    pub base_backoff: f64,
    /// Multiplier applied per failed attempt.
    pub backoff_factor: f64,
    /// Backoff ceiling, seconds.
    pub max_backoff: f64,
    /// Jitter fraction: backoff is scaled by `1 + jitter_frac * u`.
    pub jitter_frac: f64,
    /// Per-stage timeout for collectives: a dropped message costs the
    /// survivors this much waiting before the retransmit goes out.
    pub stage_timeout: f64,
    /// A worker slower than `straggler_ratio` times the healthy stage
    /// time is declared a straggler and its share is re-issued.
    pub straggler_ratio: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 4,
            base_backoff: 1e-3,
            backoff_factor: 2.0,
            max_backoff: 5e-2,
            jitter_frac: 0.25,
            stage_timeout: 1e-2,
            straggler_ratio: 4.0,
        }
    }
}

impl RecoveryPolicy {
    /// The modeled backoff before retry `attempt` (0-based), using
    /// `plan` for the deterministic jitter at `site`.
    pub fn backoff(&self, plan: &FaultPlan, site: u64, attempt: u32) -> f64 {
        let exp = self.backoff_factor.powi(attempt as i32);
        let raw = (self.base_backoff * exp).min(self.max_backoff);
        raw * (1.0 + self.jitter_frac * plan.jitter(site, attempt))
    }

    /// Straggler handling for a stage whose healthy duration is
    /// `healthy` and whose straggling factor is `factor`: if the
    /// straggle stays under the detection ratio, the full slowdown is
    /// simply waited out; past the ratio the master re-issues the share
    /// elsewhere, paying the detection threshold plus one healthy
    /// re-execution. Returns the *extra* seconds beyond `healthy`.
    pub fn straggler_overhead(&self, healthy: f64, factor: f64) -> f64 {
        debug_assert!(factor >= 1.0);
        let straggled = healthy * factor;
        let detected = healthy * self.straggler_ratio;
        if straggled <= detected {
            straggled - healthy
        } else {
            // Wait until detection, then re-issue on a healthy worker.
            (detected - healthy) + healthy
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(cfg: FaultConfig) -> FaultPlan {
        FaultPlan::new(cfg)
    }

    #[test]
    fn decisions_are_pure_functions_of_coordinates() {
        let p1 = plan(FaultConfig::transient(7));
        let p2 = plan(FaultConfig::transient(7));
        for it in 0..20u64 {
            for rank in 0..4usize {
                assert_eq!(p1.read_fault(rank, it, 3, 0), p2.read_fault(rank, it, 3, 0));
                assert_eq!(p1.write_fault(rank, it, 1), p2.write_fault(rank, it, 1));
                assert_eq!(p1.message_fault(rank, 0, it), p2.message_fault(rank, 0, it));
                assert_eq!(p1.straggler(it, rank), p2.straggler(it, rank));
            }
        }
    }

    #[test]
    fn call_order_does_not_matter() {
        let p = plan(FaultConfig::transient(3));
        let forward: Vec<_> = (0..50u64).map(|s| p.message_fault(1, 2, s)).collect();
        let backward: Vec<_> = (0..50u64).rev().map(|s| p.message_fault(1, 2, s)).collect();
        let rev: Vec<_> = backward.into_iter().rev().collect();
        assert_eq!(forward, rev);
    }

    #[test]
    fn seeds_change_the_schedule() {
        let a = plan(FaultConfig::transient(1));
        let b = plan(FaultConfig::transient(2));
        let da: Vec<_> = (0..200u64).map(|s| a.message_fault(0, 1, s)).collect();
        let db: Vec<_> = (0..200u64).map(|s| b.message_fault(0, 1, s)).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn rates_are_roughly_respected() {
        let p = plan(FaultConfig::transient(11));
        let n = 20_000u64;
        let drops = (0..n)
            .filter(|&s| p.message_fault(0, 1, s) == Some(MsgFault::Drop))
            .count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.10).abs() < 0.02, "drop rate {rate}");
        let fails = (0..n)
            .filter(|&it| p.read_fault(0, it, 0, 0) == Some(DkvFault::Fail))
            .count();
        let rate = fails as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.02, "read-fail rate {rate}");
    }

    #[test]
    fn none_injects_nothing() {
        let p = plan(FaultConfig::none(9));
        for it in 0..500u64 {
            assert_eq!(p.read_fault(0, it, 0, 0), None);
            assert_eq!(p.write_fault(0, it, 0), None);
            assert_eq!(p.message_fault(0, 1, it), None);
            assert_eq!(p.straggler(it, 0), None);
            assert_eq!(p.kill_at(it), None);
        }
    }

    #[test]
    fn kill_fires_exactly_once() {
        let p = plan(FaultConfig::none(1).with_kill(12, 3));
        assert_eq!(p.kill_at(11), None);
        assert_eq!(p.kill_at(12), Some(3));
        assert_eq!(p.kill_at(13), None);
    }

    #[test]
    fn retries_draw_fresh_decisions() {
        // With a 50% failure rate, some site must fail on attempt 0 and
        // succeed on attempt 1 (and vice versa) — i.e. attempts are
        // independent coordinates, not a single frozen verdict.
        let mut cfg = FaultConfig::none(5);
        cfg.read_fail = 0.5;
        let p = plan(cfg);
        let mut differs = false;
        for it in 0..100u64 {
            if p.read_fault(0, it, 0, 0) != p.read_fault(0, it, 0, 1) {
                differs = true;
                break;
            }
        }
        assert!(differs, "attempt number must influence the decision");
    }

    #[test]
    fn backoff_grows_and_is_capped_and_deterministic() {
        let p = plan(FaultConfig::transient(2));
        let pol = RecoveryPolicy::default();
        let b0 = pol.backoff(&p, 77, 0);
        let b1 = pol.backoff(&p, 77, 1);
        let b9 = pol.backoff(&p, 77, 9);
        assert!(b1 > b0, "{b1} vs {b0}");
        assert!(b9 <= pol.max_backoff * (1.0 + pol.jitter_frac));
        assert_eq!(b0, pol.backoff(&p, 77, 0), "jitter must be deterministic");
        // Jitter varies per attempt: raw backoff ratio would be exactly
        // the factor; with jitter it almost surely is not.
        assert!((b1 / b0 - pol.backoff_factor).abs() > 1e-9);
    }

    #[test]
    fn straggler_overhead_waits_or_reissues() {
        let pol = RecoveryPolicy {
            straggler_ratio: 4.0,
            ..RecoveryPolicy::default()
        };
        // Mild straggle (2x): wait it out — overhead is one extra healthy
        // duration.
        assert!((pol.straggler_overhead(1.0, 2.0) - 1.0).abs() < 1e-12);
        // Severe straggle (100x): detect at 4x, re-issue (1x) — overhead
        // capped at ratio - 1 + 1 = 4 healthy durations.
        assert!((pol.straggler_overhead(1.0, 100.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn invalid_probability_panics() {
        let mut cfg = FaultConfig::none(0);
        cfg.msg_drop = 1.5;
        FaultPlan::new(cfg);
    }
}
