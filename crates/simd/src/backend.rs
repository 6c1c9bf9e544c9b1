//! Runtime backend detection and the user-facing selection policy.

use core::fmt;
use core::str::FromStr;

/// A concrete instruction-set backend for the hot-path kernels.
///
/// `Scalar` is always available; the others exist only on their
/// architecture and (for AVX2) only after runtime detection. A
/// `Backend` value passed to the kernel entry points in this crate is
/// trusted to be [`available`](Backend::available) — the dispatchers
/// verify this with a runtime check before entering any
/// `#[target_feature]` shim, falling back to scalar otherwise, so a
/// forged value degrades performance but never soundness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Portable scalar arithmetic (one lane, unfused).
    Scalar,
    /// x86_64 AVX2 + FMA: four f64 lanes, fused multiply-add.
    Avx2,
    /// aarch64 NEON: two f64 lanes, fused multiply-add.
    Neon,
}

impl Backend {
    /// Pick the widest backend the running CPU supports: AVX2 + FMA on
    /// x86_64 when detected, NEON on aarch64, scalar otherwise.
    pub fn detect() -> Backend {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return Backend::Avx2;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            // NEON is part of the aarch64 baseline.
            return Backend::Neon;
        }
        #[allow(unreachable_code)]
        Backend::Scalar
    }

    /// Whether this backend can run on the current CPU.
    pub fn available(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// f64 lanes per register for this backend.
    pub fn lanes(self) -> usize {
        match self {
            Backend::Scalar => 1,
            Backend::Neon => 2,
            Backend::Avx2 => 4,
        }
    }

    /// Whether multiply-add fuses (rounds once) on this backend.
    pub fn fused(self) -> bool {
        matches!(self, Backend::Avx2 | Backend::Neon)
    }

    /// Stable lowercase name, accepted back by [`SimdPolicy::from_str`].
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How the sampler should choose its kernel backend.
///
/// `Auto` (the default) resolves to [`Backend::detect`]. `Force`
/// demands a specific backend and resolution fails with a descriptive
/// error when the host cannot run it — we never silently downgrade a
/// forced choice, because forced backends exist precisely to make
/// performance and bitwise behaviour reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdPolicy {
    /// Use the widest available backend.
    #[default]
    Auto,
    /// Use exactly this backend or fail.
    Force(Backend),
}

impl SimdPolicy {
    /// Resolve the policy against the running CPU.
    pub fn resolve(self) -> Result<Backend, PolicyError> {
        match self {
            SimdPolicy::Auto => Ok(Backend::detect()),
            SimdPolicy::Force(b) => {
                if b.available() {
                    Ok(b)
                } else {
                    Err(PolicyError { requested: b })
                }
            }
        }
    }

    /// Stable lowercase name of the policy.
    pub fn name(self) -> &'static str {
        match self {
            SimdPolicy::Auto => "auto",
            SimdPolicy::Force(b) => b.name(),
        }
    }
}

impl fmt::Display for SimdPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SimdPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(SimdPolicy::Auto),
            "scalar" => Ok(SimdPolicy::Force(Backend::Scalar)),
            "avx2" => Ok(SimdPolicy::Force(Backend::Avx2)),
            "neon" => Ok(SimdPolicy::Force(Backend::Neon)),
            other => Err(format!(
                "unknown simd backend `{other}` (expected auto, scalar, avx2, or neon)"
            )),
        }
    }
}

/// A forced backend the host cannot execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyError {
    /// The backend that was requested.
    pub requested: Backend,
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simd backend `{}` is not available on this host (detected: `{}`)",
            self.requested,
            Backend::detect()
        )
    }
}

impl std::error::Error for PolicyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_available_and_auto_resolves_to_it() {
        let b = Backend::detect();
        assert!(b.available());
        assert_eq!(SimdPolicy::Auto.resolve().unwrap(), b);
    }

    #[test]
    fn scalar_always_resolves() {
        assert_eq!(
            SimdPolicy::Force(Backend::Scalar).resolve().unwrap(),
            Backend::Scalar
        );
    }

    #[test]
    fn policy_parses_round_trip() {
        for s in ["auto", "scalar", "avx2", "neon"] {
            let p: SimdPolicy = s.parse().unwrap();
            assert_eq!(p.name(), s);
        }
        assert!("avx512".parse::<SimdPolicy>().is_err());
        let err = "sse2".parse::<SimdPolicy>().unwrap_err();
        assert!(err.contains("auto, scalar, avx2, or neon"), "{err}");
    }

    #[test]
    fn lanes_and_fusedness_match_contract() {
        assert_eq!(Backend::Scalar.lanes(), 1);
        assert_eq!(Backend::Avx2.lanes(), 4);
        assert_eq!(Backend::Neon.lanes(), 2);
        assert!(!Backend::Scalar.fused());
        assert!(Backend::Avx2.fused());
        assert!(Backend::Neon.fused());
    }

    #[test]
    fn unavailable_force_fails_with_context() {
        // At most one of these architectures exists at runtime, so the
        // other's backend must refuse to resolve.
        #[cfg(target_arch = "x86_64")]
        let foreign = Backend::Neon;
        #[cfg(not(target_arch = "x86_64"))]
        let foreign = Backend::Avx2;
        let err = SimdPolicy::Force(foreign).resolve().unwrap_err();
        assert_eq!(err.requested, foreign);
        assert!(err.to_string().contains(foreign.name()));
    }
}
