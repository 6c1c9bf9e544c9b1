//! `mmsb-check`: the workspace's standing correctness gate for
//! concurrent code.
//!
//! Two tools live here:
//!
//! * [`model`] — a loom/shuttle-style deterministic model checker.
//!   Protocols generic over `mmsb_pool::sync::SyncBackend` (the
//!   fork-join pool, the serving layer's snapshot cell and admission
//!   control) are compiled against the [`model::ModelSync`] backend and
//!   explored under bounded-exhaustive interleavings. See the `tests/` suite for
//!   the ported protocols and the seeded-bug self-tests.
//! * [`lint`] — `xlint`, a token-level (no `syn`, offline) source lint
//!   enforcing the repo's unsafe-code invariants: `// SAFETY:` comments
//!   on every unsafe block, an allowlist of unsafe-bearing modules,
//!   `#![deny(unsafe_op_in_unsafe_fn)]` in unsafe-using crates, and
//!   `std::sync` confinement to the pool's `sync` module. Run with
//!   `cargo run -p mmsb-check --bin xlint`.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod lint;
pub mod model;
