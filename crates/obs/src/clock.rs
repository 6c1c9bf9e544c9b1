//! The workspace's only real clock (outside `mmsb-bench`).
//!
//! Everything that needs wall time goes through [`Stopwatch`] or
//! [`now_ns`]; `std::time::Instant`/`SystemTime` anywhere else in the
//! workspace is an `xlint` violation (`time-confinement`). Confining the
//! clock keeps the determinism and resume-safety arguments auditable:
//! grepping one crate answers "what can observe real time".

use std::sync::OnceLock;
use std::time::Instant;

static ANCHOR: OnceLock<Instant> = OnceLock::new();

fn anchor() -> Instant {
    *ANCHOR.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the first clock use in this process.
///
/// The anchor makes timestamps small and non-negative, which the chrome
/// trace exporter relies on (its `ts` field is microseconds from an
/// arbitrary epoch).
#[inline]
pub fn now_ns() -> u64 {
    anchor().elapsed().as_nanos() as u64
}

/// A started stopwatch — the drop-in replacement for the
/// `Instant::now()` / `elapsed()` pairs the runtime crates used to hold.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    #[inline]
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Whole nanoseconds elapsed since [`Stopwatch::start`].
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_is_monotonic_nondecreasing() {
        let a = now_ns();
        let b = now_ns();
        let c = now_ns();
        assert!(a <= b && b <= c);
    }

    #[test]
    fn stopwatch_measures_forward_time() {
        let sw = Stopwatch::start();
        let mut x = 0u64;
        for i in 0..10_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let ns1 = sw.elapsed_ns();
        let ns2 = sw.elapsed_ns();
        assert!(ns2 >= ns1);
    }
}
