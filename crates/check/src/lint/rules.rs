//! The rule registry: every lint this analyzer runs, as data.
//!
//! Each [`Rule`] bundles an id, a one-line summary (the README table),
//! a long explanation (`xlint --explain <rule>`), a suppressibility
//! flag, and its checker. Adding a rule means adding
//! one table entry and one function — or, for a rule about which names
//! may appear in which files, rows of [`PLACEMENTS`] — the driver in
//! `mod.rs` and the suppression engine need no changes.
//!
//! Policy tables (allowlists, the placement rows, the lock order,
//! hot-path module list) live at the top of this file so a policy
//! change is a one-table diff.

use super::lexer::{lex, Tok};
use super::parse::ParsedFile;
use super::Violation;

// ---------------------------------------------------------------------
// Policy tables.
// ---------------------------------------------------------------------

/// Crates that must carry `#![forbid(unsafe_code)]` in their lib root.
pub const FORBID_CRATES: &[&str] = &["rand", "graph", "svi", "netsim", "bench", "mmsb", "serve"];

/// Path prefixes (relative to the repo root, `/`-separated) where
/// `unsafe` is permitted. The four test files each install a
/// forwarding `#[global_allocator]` (an `unsafe impl GlobalAlloc` that
/// only counts) to pin allocation counts or the live-heap peak.
pub const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/pool/src",
    "crates/simd/src",
    "crates/core/src/sampler/driver.rs",
    "crates/core/tests/zero_alloc.rs",
    "crates/serve/tests/zero_alloc_serve.rs",
    "crates/serve/tests/reload_footprint.rs",
    "crates/ooc/tests/build_budget.rs",
    "crates/check/src/model",
    "crates/check/tests",
];

/// The pool's sync module: the one home of `std::sync` in pool and netsim,
/// and the lock layer's own implementation.
pub const SYNC_MODULE: &str = "crates/pool/src/sync";

/// Path prefixes where `std::fs` may be named: the sanctioned
/// persistence layers (out-of-core graph files, the edge-list reader,
/// checkpointing, obs export), the harnesses whose whole job is files
/// (bench, CLI), and the analyzer's own workspace walk.
pub const FS_ALLOWED: &[&str] = &[
    "crates/ooc/src",
    "crates/graph/src/io.rs",
    "crates/core/src/checkpoint.rs",
    "crates/bench",
    "crates/mmsb",
    "crates/check/src/lint",
    "crates/obs/src/export.rs",
];

/// A prefix of every path: the row applies everywhere but its `except`.
const EVERYWHERE: &[&str] = &[""];
/// The lockstep driver of the simulated cluster (paper §III).
const DISTRIBUTED: &str = "crates/core/src/sampler/distributed.rs";

/// One row of the placement table: names a set of files may not name.
pub struct Place {
    /// The rule a match is reported under.
    pub rule: &'static str,
    /// Token patterns: an identifier (`Instant`), a path (`std::fs`) or
    /// a short token run (`graph_cache:`), where `*` stands for any path
    /// qualifier (`a::b::`, or none). Comments and literals never match.
    pub names: &'static [&'static str],
    /// The row applies to files under one of these path prefixes…
    pub within: &'static [&'static str],
    /// …and under none of these.
    pub except: &'static [&'static str],
    /// `tests/` files and `#[cfg(test)]` code are exempt.
    pub tests_exempt: bool,
    /// The violation message; `{}` is the matched text.
    pub message: &'static str,
}

/// Which names may appear in which files: every confinement rule and
/// every boundary of the paper's layering, as data. The rules' `--explain`
/// texts give each row's reason.
pub const PLACEMENTS: &[Place] = &[
    Place {
        rule: "std-sync-confinement",
        names: &["std::sync"],
        within: &["crates/pool/src", "crates/netsim/src"],
        except: &[SYNC_MODULE],
        tests_exempt: false,
        message: "direct `std::sync` reference outside the sync module; go \
                  through `mmsb_pool::sync` (SyncBackend or the re-exports in \
                  `sync::real`) so the protocol stays model-checkable",
    },
    Place {
        rule: "time-confinement",
        names: &["Instant", "SystemTime"],
        within: EVERYWHERE,
        except: &["crates/obs", "crates/bench"],
        tests_exempt: false,
        message: "`{}` named outside crates/obs and crates/bench; read time \
                  through `mmsb_obs::clock` (Stopwatch / now_ns) so the shared \
                  anchor and the obs off-level guarantees hold",
    },
    Place {
        rule: "arch-confinement",
        names: &["core::arch", "std::arch"],
        within: EVERYWHERE,
        except: &["crates/simd"],
        tests_exempt: false,
        message: "`{}` named outside crates/simd; call intrinsics through \
                  `mmsb_simd`'s safe dispatchers so every unsafe lane operation \
                  stays behind the proof-token model and its parity tests",
    },
    Place {
        rule: "net-confinement",
        names: &["std::net"],
        within: EVERYWHERE,
        except: &["crates/serve"],
        tests_exempt: false,
        message: "`std::net` named outside crates/serve; drive a server \
                  through `mmsb_serve` (ServeHandle, loadgen) so real \
                  socket I/O stays in one crate with one shutdown protocol",
    },
    Place {
        rule: "fs-confinement",
        names: &["std::fs"],
        within: EVERYWHERE,
        except: FS_ALLOWED,
        tests_exempt: true,
        message: "`std::fs` named outside the sanctioned persistence layers; \
                  route durable bytes through mmsb_ooc / graph::io / Checkpoint \
                  / obs export, or extend FS_ALLOWED in \
                  crates/check/src/lint/rules.rs",
    },
    Place {
        rule: "hash-iter",
        names: &["HashMap", "HashSet"],
        within: &[
            "crates/core/src",
            "crates/netsim/src",
            "crates/simd/src",
            "crates/svi/src",
        ],
        except: &[],
        tests_exempt: true,
        message: "std `{}` in a result-affecting crate: its per-process hasher seed \
                  makes iteration order nondeterministic; use BTreeMap/BTreeSet or \
                  `mmsb_graph::FxHashMap`/`FxHashSet`",
    },
    Place {
        rule: "hot-path-panic",
        names: &[".unwrap", ".expect"],
        within: HOT_PATHS,
        except: &[],
        tests_exempt: true,
        message: "`{}()` in a hot-path module can panic; handle the error or \
                  prove it impossible and suppress with justification",
    },
    Place {
        rule: "hot-path-panic",
        names: &["panic!", "todo!", "unimplemented!", "unreachable!"],
        within: HOT_PATHS,
        except: &[],
        tests_exempt: true,
        message: "`{}` in a hot-path module aborts the worker; return an error \
                  instead",
    },
    Place {
        rule: "hot-path-alloc",
        names: &[
            "Vec::new",
            "Vec::with_capacity",
            "Vec::from",
            "Box::new",
            "String::new",
            "String::with_capacity",
            "String::from",
            "vec!",
            "format!",
        ],
        within: HOT_PATHS,
        except: &[],
        tests_exempt: true,
        message: "`{}` allocates in a hot-path module; reuse a preallocated \
                  buffer, or suppress if this is setup-time construction",
    },
    Place {
        rule: "hot-path-alloc",
        names: &[".collect", ".to_vec", ".to_string", ".to_owned"],
        within: HOT_PATHS,
        except: &[],
        tests_exempt: true,
        message: "`{}()` allocates in a hot-path module; write into a caller \
                  buffer instead",
    },
    Place {
        rule: "layer-boundary",
        names: &[
            "Stopwatch::start",
            "elapsed_secs",
            "Instant",
            "SystemTime",
            "now_ns",
        ],
        within: &["crates/netsim/src", DISTRIBUTED],
        except: &[],
        tests_exempt: false,
        message: "`{}`: a clock read in the price of the simulated cluster",
    },
    Place {
        rule: "layer-boundary",
        names: &[
            "update_phi",
            "theta_gradient",
            "perplexity_probs_into",
            "apply_phi_updates",
            "apply_theta_update",
            "refresh_minibatch",
            "fan_out",
        ],
        within: &[DISTRIBUTED],
        except: &[],
        tests_exempt: false,
        message: "`{}`: the lockstep driver computes a stage of the chain",
    },
    Place {
        rule: "layer-boundary",
        names: &["BlockCache"],
        within: &["crates/core/src/workspace.rs"],
        except: &[],
        tests_exempt: false,
        message: "`{}`: the sampler workspace names a block cache",
    },
    Place {
        rule: "layer-boundary",
        names: &["graph_cache:"],
        within: &["crates/core/src"],
        except: &[],
        tests_exempt: false,
        message: "`{}` field: a per-thread graph cache beside the region caches",
    },
    Place {
        rule: "layer-boundary",
        names: &["Checkpoint::capture", "Option<*Checkpoint>"],
        within: &[DISTRIBUTED],
        except: &[],
        tests_exempt: false,
        message: "`{}`: the lockstep driver keeps a rollback checkpoint",
    },
    Place {
        rule: "layer-boundary",
        names: &["read_block_into"],
        within: &[
            "crates/ooc/src/cache.rs",
            "crates/ooc/src/region.rs",
            "crates/core/src",
        ],
        except: &[],
        tests_exempt: false,
        message: "`{}`: a whole-block read on the cached path",
    },
];

/// The designated hot-path modules: the request path of the serving
/// layer, the sampler's inner step driver and its per-vertex / per-pair
/// stage functions, the SIMD kernels (the CRC-32 every out-of-core frame
/// load runs included), the out-of-core frame cache every staged list is
/// read through, and the pool's worker loop. These
/// are the files whose steady state the counting-allocator tests
/// (`zero_alloc.rs`, `zero_alloc_serve.rs`) pin dynamically; the
/// hot-path rules pin the same property statically, on every line, on
/// every build.
pub const HOT_PATHS: &[&str] = &[
    "crates/serve/src/handlers.rs",
    "crates/serve/src/http.rs",
    "crates/serve/src/shed.rs",
    "crates/core/src/sampler/driver.rs",
    "crates/core/src/sampler/stage.rs",
    "crates/simd/src/crc.rs",
    "crates/simd/src/phi.rs",
    "crates/simd/src/theta.rs",
    "crates/simd/src/edge.rs",
    "crates/simd/src/math.rs",
    "crates/simd/src/lanes.rs",
    "crates/pool/src/worker.rs",
    "crates/ooc/src/cache.rs",
];

/// Crates whose locks participate in the declared acquisition order.
pub const LOCK_ORDER_SCOPE: &[&str] = &["crates/pool/src", "crates/serve/src", "crates/netsim/src"];

/// The declared partial order on named locks: a function may only
/// acquire locks in non-decreasing rank. `state` is the pool's shared
/// scheduling state (innermost critical sections, held across condvar
/// waits); `current` is the `SnapshotCell` slot — the writer-side
/// publish discipline says it is taken last.
pub const LOCK_RANKS: &[(&str, u32)] = &[("state", 0), ("current", 1)];

// ---------------------------------------------------------------------
// Rule plumbing.
// ---------------------------------------------------------------------

/// Everything a per-file checker can see.
pub struct FileCtx<'a> {
    /// Repo-relative `/`-separated path.
    pub rel: &'a str,
    /// Raw source lines (for comment-proximity checks).
    pub lines: &'a [&'a str],
    /// Lexed code tokens.
    pub toks: &'a [Tok],
    /// The recovered item tree + `#[cfg(test)]` mask.
    pub parsed: &'a ParsedFile,
}

/// Per-file summary consumed by workspace-level rules.
pub struct WorkspaceFile {
    /// Repo-relative `/`-separated path.
    pub rel: String,
    /// File uses `unsafe` as code (fn-pointer types excluded).
    pub uses_unsafe: bool,
    /// File carries `#![deny(unsafe_op_in_unsafe_fn)]`.
    pub has_deny: bool,
    /// File carries `#![forbid(unsafe_code)]`.
    pub has_forbid: bool,
}

/// A rule's checker.
pub enum Check {
    /// Runs once per file (gating itself on the policy tables).
    File(fn(&FileCtx<'_>, &mut Vec<Violation>)),
    /// Runs once over the whole workspace file list.
    Workspace(fn(&[WorkspaceFile], &mut Vec<Violation>)),
    /// Only the rule's rows of [`PLACEMENTS`], which carry their own
    /// paths (every rule's rows run, by [`check_placement`]).
    Place,
    /// Emitted by the driver or the suppression engine, not a checker.
    Meta,
}

/// One registered rule.
pub struct Rule {
    /// Stable id, used in output, suppressions, and `--explain`.
    pub id: &'static str,
    /// One-line summary (README table, `--explain` with no argument).
    pub summary: &'static str,
    /// Long-form rationale for `--explain <rule>`.
    pub explain: &'static str,
    /// May an inline `// xlint: allow(...)` waive this rule?
    pub suppressible: bool,
    /// The checker.
    pub check: Check,
}

/// The registry. Order is documentation order; output is re-sorted by
/// location regardless.
pub fn registry() -> &'static [Rule] {
    &REGISTRY
}

/// Look up a rule by id.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    REGISTRY.iter().find(|r| r.id == id)
}

/// All rule ids (for suppression validation).
pub fn rule_ids() -> Vec<&'static str> {
    REGISTRY.iter().map(|r| r.id).collect()
}

static REGISTRY: [Rule; 17] = [
    Rule {
        id: "safety-comment",
        summary: "every unsafe site carries a `// SAFETY:` justification",
        explain: "Every `unsafe` block / `unsafe impl` / `unsafe trait` / `unsafe fn` must be \
justified: a `// SAFETY:` comment on the same line or within the six preceding lines, or (for \
`unsafe fn`) a `# Safety` section in the contiguous doc comment directly above. `unsafe fn(...)` \
function-pointer *types* are exempt — they declare no new obligation site. The comment is the \
reviewer's proof obligation: it must say which invariant makes the operation sound.",
        suppressible: false,
        check: Check::File(check_safety_comment),
    },
    Rule {
        id: "unsafe-allowlist",
        summary: "unsafe code only in the documented, model-checked modules",
        explain: "`unsafe` may appear only in the modules whose invariants are documented and \
model-checked: crates/pool/src, crates/simd/src (intrinsics behind proof tokens), \
crates/core/src/sampler/driver.rs, the counting-allocator tests, and the checker's own model \
backend + protocol ports. Extending the allowlist is a reviewed table edit in \
crates/check/src/lint/rules.rs, never an inline waiver — which is why this rule is not \
suppressible.",
        suppressible: false,
        check: Check::File(check_unsafe_allowlist),
    },
    Rule {
        id: "deny-attr",
        summary: "unsafe-using crate roots carry #![deny(unsafe_op_in_unsafe_fn)]",
        explain: "Every crate whose src/ uses `unsafe` must carry \
`#![deny(unsafe_op_in_unsafe_fn)]` in its root, and every integration-test file (its own crate \
root) using `unsafe` must carry it too. This keeps each unsafe operation inside an explicit \
`unsafe {}` with its own SAFETY comment, instead of inheriting a whole-function blanket.",
        suppressible: false,
        check: Check::Workspace(check_deny_attr),
    },
    Rule {
        id: "forbid-attr",
        summary: "no-unsafe crates pin that with #![forbid(unsafe_code)]",
        explain: "The crates that need no unsafe at all (rand, graph, svi, netsim, bench, mmsb, \
serve) must pin that with `#![forbid(unsafe_code)]`, so a future `unsafe` block is a \
compile error rather than a silent scope creep.",
        suppressible: false,
        check: Check::Workspace(check_forbid_attr),
    },
    Rule {
        id: "std-sync-confinement",
        summary: "pool/netsim go through SyncBackend, never std::sync directly",
        explain: "Inside crates/pool/src and crates/netsim/src, `std::sync` may be named only in \
the sync module (crates/pool/src/sync/): all other code must go through the `SyncBackend` layer \
so `mmsb-check` can model it. The DKV store and the fault layer are deliberately inside this \
fence — the sharded store's request path and the fault plan are single-threaded today, and a \
lock or atomic added to either may come only through the backend, which is what would let the \
model tests explore its races.",
        suppressible: false,
        check: Check::Place,
    },
    Rule {
        id: "time-confinement",
        summary: "wall-clock types only under crates/obs and crates/bench",
        explain: "`std::time::Instant` / `SystemTime` may be named only under crates/obs and \
crates/bench. Everything else reads the clock through `mmsb_obs::clock` (Stopwatch, now_ns), so \
instrumentation shares one anchor, the off level provably never touches the clock, and the \
virtual-time simulation never silently mixes in wall-clock reads.",
        suppressible: false,
        check: Check::Place,
    },
    Rule {
        id: "arch-confinement",
        summary: "core::arch / std::arch only under crates/simd",
        explain: "`core::arch` / `std::arch` (intrinsics, feature detection) may be named only \
under crates/simd. All other crates consume SIMD through `mmsb-simd`'s safe dispatchers, which \
keeps every intrinsic behind one crate's proof-token safety model and its bitwise-parity tests.",
        suppressible: false,
        check: Check::Place,
    },
    Rule {
        id: "net-confinement",
        summary: "std::net only under crates/serve",
        explain: "`std::net` (sockets, listeners, addresses) may be named only under crates/serve \
(src and tests alike). Every other crate talks to a server through `mmsb-serve`'s public API — \
ServeHandle, loadgen — so there is exactly one place where real I/O happens, one shutdown \
protocol, and the simulated transports can never silently grow a real socket.",
        suppressible: false,
        check: Check::Place,
    },
    Rule {
        id: "fs-confinement",
        summary: "std::fs only in the sanctioned persistence layers",
        explain: "`std::fs` may be named only in the layers whose job is durable bytes: the \
out-of-core graph format (crates/ooc), the edge-list reader (crates/graph/src/io.rs), checkpoint \
persistence (crates/core/src/checkpoint.rs), the obs exporter, the bench harness, the CLI, and \
the analyzer's own workspace walk. Everything else stays I/O-free by construction: samplers, \
kernels, and stores take readers/writers or in-memory state, so they are testable without a \
filesystem and a stray temp file can never leak into a hot loop. Integration tests and \
`#[cfg(test)]` code are exempt — tempfile round-trips are how the persistence layers are \
tested. Extending the allowlist is a reviewed table edit (FS_ALLOWED in \
crates/check/src/lint/rules.rs), never an inline waiver.",
        suppressible: false,
        check: Check::Place,
    },
    Rule {
        id: "hot-path-panic",
        summary: "no unwrap/expect/panic!/indexing in hot-path modules",
        explain: "In the designated hot-path modules (serve handlers/http, sampler driver, SIMD \
kernels, pool worker loop) a panic aborts a worker or drops a request: no `.unwrap()`, \
`.expect()`, `panic!`, `todo!`, `unimplemented!`, `unreachable!`, and no slice indexing (`x[i]` \
can panic on out-of-bounds). Return errors, use `get`/checked splits, or — where an index is \
bounded by construction — suppress with the proof in the justification: \
`// xlint: allow(hot-path-panic) — <why the index is in bounds>`. Code under `#[cfg(test)]` is \
exempt.",
        suppressible: true,
        check: Check::File(check_hot_path_index),
    },
    Rule {
        id: "hot-path-alloc",
        summary: "no allocation in hot-path modules (static zero_alloc complement)",
        explain: "The same hot-path modules must not allocate in steady state — the \
counting-allocator tests (zero_alloc.rs, zero_alloc_serve.rs) prove this dynamically for the \
paths they exercise; this rule pins it statically for every line. Flags `Vec::new`, \
`Vec::with_capacity`, `Vec::from`, `vec![…]`, `Box::new`, `String::from/new/with_capacity`, \
`format!`, `.collect()`, `.to_vec()`, `.to_string()`, `.to_owned()`. Setup-time allocation \
(buffer construction before the loop) is legitimate — suppress it with a justification saying \
so. Code under `#[cfg(test)]` is exempt.",
        suppressible: true,
        check: Check::Place,
    },
    Rule {
        id: "lock-order",
        summary: "lock acquisitions follow the declared order: state < current",
        explain: "In crates/pool, crates/serve, and crates/netsim, every named lock is ranked \
(state=0, current=1) and each function must acquire locks in non-decreasing rank \
— the static form of SnapshotCell's writer-side discipline. The checker extracts per-function \
acquisition sequences (`S::lock(&…path)` backend calls and `.lock()` method calls), expands \
same-file callees one level, and flags rank inversions and locks missing from the table \
(extend LOCK_RANKS in crates/check/src/lint/rules.rs when a genuinely new lock is born). \
Token-level limits: it cannot see guard drops, so a sequential re-acquire looks like nesting — \
equal ranks are allowed, and a deliberate drop-then-lock-lower pattern needs a suppression \
explaining the drop. Code under `#[cfg(test)]` is exempt.",
        suppressible: true,
        check: Check::File(check_lock_order),
    },
    Rule {
        id: "hash-iter",
        summary: "no std HashMap/HashSet in result-affecting crates",
        explain: "std's HashMap/HashSet seed their hasher per process (RandomState), so iteration \
order differs run to run. In the crates whose outputs feed trained state or published artifacts \
(core, netsim, simd, svi) that order can leak into float accumulation and break the \
bitwise-determinism guarantees the seeded-rerun tests pin. Use BTreeMap/BTreeSet (ordered) or \
`mmsb_graph::FxHashMap`/`FxHashSet` (fixed-seed, reproducible iteration). Code under \
`#[cfg(test)]` is exempt — test assertions on membership don't feed results.",
        suppressible: true,
        check: Check::Place,
    },
    Rule {
        id: "layer-boundary",
        summary: "the simulated cluster prices the step record: no clock, no second chain",
        explain: "The paper's layering (§III), as placement rows; test code is not exempt. \
(1) No clock read (`Stopwatch::start`, `elapsed_secs`, `Instant`, `SystemTime`, `now_ns`) in \
crates/netsim/src or the lockstep driver (crates/core/src/sampler/distributed.rs): the price \
charges compute as counted work and records each priced DKV access at its priced time \
(`OpObs::priced_read`/`priced_write`), so a clock read would put host time into the virtual \
clock. (2) No stage of the chain (`update_phi`, `theta_gradient`, `perplexity_probs_into`, \
`apply_phi_updates`, `apply_theta_update`, `refresh_minibatch`) and no pool `fan_out` named in \
the lockstep driver: it runs the pool driver's step and only prices it, so a stage there would be \
a second sampler. (3) One set of block caches: the engine caches an out-of-core file's blocks by \
region (`RegionCaches`), each block in one cache, so crates/core/src/workspace.rs names no \
`BlockCache` and no file under crates/core/src has a `graph_cache:` field; a cache per thread \
beside the region caches would load the blocks a step needs twice. (4) No rollback checkpoint in \
the lockstep driver (`Checkpoint::capture`, `Option<Checkpoint>` by any path): a worker loss \
re-prices the held step records at R - 1 workers, while a live capture copies the model planes \
at the next step and restoring one replays steps the chain already ran. (5) No whole-block read \
on the cached path: a cache miss reads and verifies only the 1 KiB frames its list spans, so the \
frame cache (crates/ooc/src/cache.rs), the region caches (crates/ooc/src/region.rs) and the \
sampler (crates/core/src) never name `read_block_into`, the start-up scan's pread and CRC of a \
whole block. The price's manifest (crates/netsim/Cargo.toml names no mmsb-core, mmsb-pool or \
mmsb-ooc) is checked by scripts/tier1.sh: xlint reads no manifests.",
        suppressible: false,
        check: Check::Place,
    },
    Rule {
        id: "malformed-suppression",
        summary: "xlint markers must be `allow(<rule>) — <justification>`",
        explain: "An `// xlint:` comment that is not `allow(<known-rule>) — <non-empty \
justification>` is itself an error: a typo'd marker would otherwise silently suppress nothing \
(or look like it suppresses something). The justification is mandatory — every waiver carries \
its reason in the diff forever.",
        suppressible: false,
        check: Check::Meta,
    },
    Rule {
        id: "unused-suppression",
        summary: "suppressions that no longer suppress anything must be deleted",
        explain: "A suppression whose covered lines are clean is stale: the code was fixed (or \
moved) and the waiver now documents a violation that does not exist, rotting into false \
confidence. The analyzer tracks which suppressions fired and fails on the ones that did not. \
Also raised when a waiver names a non-suppressible rule — those policies are changed by editing \
the tables in crates/check/src/lint/rules.rs, not inline.",
        suppressible: false,
        check: Check::Meta,
    },
    Rule {
        id: "io",
        summary: "every workspace source file must be readable",
        explain: "Raised when a .rs file under crates/ cannot be read during the workspace walk. \
An unreadable file is a file the analyzer cannot vouch for, so it fails loudly instead of \
skipping.",
        suppressible: false,
        check: Check::Meta,
    },
];

// ---------------------------------------------------------------------
// Shared helpers.
// ---------------------------------------------------------------------

/// `unsafe` sites in the token stream, with a human label. Skips
/// `unsafe fn(...)` function-pointer types (no obligation site).
pub(crate) fn unsafe_sites(toks: &[Tok]) -> Vec<(usize, &'static str)> {
    let mut out = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        if t.text != "unsafe" {
            continue;
        }
        let next = toks.get(k + 1).map(|t| t.text.as_str()).unwrap_or("");
        let what = match next {
            "fn" => {
                if toks.get(k + 2).map(|t| t.text.as_str()) == Some("(") {
                    continue; // `unsafe fn(...)` pointer type: no new site
                }
                "unsafe fn"
            }
            "impl" => "unsafe impl",
            "trait" => "unsafe trait",
            "extern" => "unsafe extern block",
            _ => "unsafe block",
        };
        out.push((k, what));
    }
    out
}

/// Is line `line` (1-based) justified by a nearby safety comment?
/// Accepts `SAFETY:` on the same line or the six preceding lines, or
/// `# Safety` / `SAFETY:` anywhere in the contiguous comment/attribute
/// run directly above (covers `unsafe fn` doc sections of any length).
fn has_safety_near(lines: &[&str], line: usize) -> bool {
    if lines.is_empty() {
        return false;
    }
    let idx = (line - 1).min(lines.len() - 1);
    let lo = idx.saturating_sub(6);
    if lines[lo..=idx].iter().any(|l| l.contains("SAFETY:")) {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let t = lines[j].trim_start();
        if t.starts_with("//") || t.starts_with("#[") || t.starts_with("#!") || t.is_empty() {
            if t.contains("# Safety") || t.contains("SAFETY:") {
                return true;
            }
        } else {
            break;
        }
    }
    false
}

/// Is `rel` under one of these path prefixes?
fn under(rel: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| rel.starts_with(p))
}

/// The end of `pat` matched at `toks[k..]`, if it matches there. A `*`
/// in `pat` takes any run of `ident ::` qualifiers.
fn match_at(toks: &[Tok], mut k: usize, pat: &[Tok]) -> Option<usize> {
    for p in pat {
        if p.text == "*" {
            while toks.get(k).is_some_and(|t| ident_like(&t.text))
                && toks.get(k + 1).is_some_and(|t| t.text == ":")
                && toks.get(k + 2).is_some_and(|t| t.text == ":")
            {
                k += 3;
            }
        } else if toks.get(k)?.text == p.text {
            k += 1;
        } else {
            return None;
        }
    }
    Some(k)
}

/// The placement checker: each row of `rule` in [`PLACEMENTS`] that
/// applies to this file, matched at every token in source order.
pub fn check_placement(rule: &'static str, ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    let in_tests = ctx.rel.contains("/tests/");
    let rows: Vec<(&Place, Vec<Vec<Tok>>)> = PLACEMENTS
        .iter()
        .filter(|p| p.rule == rule && under(ctx.rel, p.within) && !under(ctx.rel, p.except))
        .filter(|p| !(p.tests_exempt && in_tests))
        .map(|p| (p, p.names.iter().map(|n| lex(n)).collect()))
        .collect();
    for k in 0..ctx.toks.len() {
        for (place, names) in &rows {
            if place.tests_exempt && ctx.parsed.test_mask[k] {
                continue;
            }
            for name in names {
                if let Some(end) = match_at(ctx.toks, k, name) {
                    let text: String = ctx.toks[k..end].iter().map(|t| t.text.as_str()).collect();
                    let message = place.message.replace("{}", &text);
                    push(out, ctx, &ctx.toks[k], rule, message);
                }
            }
        }
    }
}

/// Record a finding of `rule` at token `at`.
fn push(
    out: &mut Vec<Violation>,
    ctx: &FileCtx<'_>,
    at: &Tok,
    rule: &'static str,
    message: String,
) {
    out.push(Violation {
        file: ctx.rel.to_string(),
        line: at.line,
        column: at.col,
        rule,
        message,
    });
}

// ---------------------------------------------------------------------
// Ported rules (behavior pinned by xlint_gate.rs).
// ---------------------------------------------------------------------

fn check_safety_comment(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    for (k, what) in unsafe_sites(ctx.toks) {
        if !has_safety_near(ctx.lines, ctx.toks[k].line) {
            push(
                out,
                ctx,
                &ctx.toks[k],
                "safety-comment",
                format!(
                    "{what} without a `// SAFETY:` comment (or `# Safety` doc section) \
                     justifying its invariants"
                ),
            );
        }
    }
}

fn check_unsafe_allowlist(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if under(ctx.rel, UNSAFE_ALLOWLIST) {
        return;
    }
    for (k, what) in unsafe_sites(ctx.toks) {
        push(
            out,
            ctx,
            &ctx.toks[k],
            "unsafe-allowlist",
            format!(
                "{what} outside the unsafe allowlist; move the unsafety into \
                 an allowlisted module or extend the list in crates/check/src/lint/rules.rs \
                 with a documented invariant"
            ),
        );
    }
}

fn check_deny_attr(files: &[WorkspaceFile], out: &mut Vec<Violation>) {
    // Per-crate unsafe presence (src/ only — integration tests are
    // their own crate roots and are checked individually).
    let mut crate_uses: std::collections::BTreeMap<&str, bool> = Default::default();
    for f in files {
        let Some(krate) = f
            .rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
        else {
            continue;
        };
        if f.rel.starts_with(&format!("crates/{krate}/src/")) {
            *crate_uses.entry(krate).or_default() |= f.uses_unsafe;
        } else if f.uses_unsafe && !f.has_deny {
            out.push(Violation {
                file: f.rel.clone(),
                line: 1,
                column: 0,
                rule: "deny-attr",
                message: "file uses unsafe but is missing \
                          `#![deny(unsafe_op_in_unsafe_fn)]` (integration tests and \
                          bins are their own crate roots)"
                    .to_string(),
            });
        }
    }
    for (krate, uses) in &crate_uses {
        let rel = format!("crates/{krate}/src/lib.rs");
        let Some(lib) = files.iter().find(|f| f.rel == rel) else {
            continue;
        };
        if *uses && !lib.has_deny {
            out.push(Violation {
                file: rel,
                line: 1,
                column: 0,
                rule: "deny-attr",
                message: format!(
                    "crate `{krate}` uses unsafe but its root is missing \
                     `#![deny(unsafe_op_in_unsafe_fn)]`"
                ),
            });
        }
    }
}

fn check_forbid_attr(files: &[WorkspaceFile], out: &mut Vec<Violation>) {
    for krate in FORBID_CRATES {
        let rel = format!("crates/{krate}/src/lib.rs");
        let Some(lib) = files.iter().find(|f| f.rel == rel) else {
            continue;
        };
        if !lib.has_forbid {
            out.push(Violation {
                file: rel,
                line: 1,
                column: 0,
                rule: "forbid-attr",
                message: format!(
                    "crate `{krate}` needs no unsafe and must pin that with \
                     `#![forbid(unsafe_code)]`"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// New semantic rules.
// ---------------------------------------------------------------------

/// Keywords that can directly precede `[` without it being an index
/// expression (slice patterns, array expressions in statements).
const NON_INDEX_PRECEDERS: &[&str] = &[
    "let", "in", "return", "match", "else", "mut", "ref", "move", "const", "static", "break",
    "continue", "where", "use", "pub", "crate", "as", "dyn", "impl", "for", "if", "while",
];

fn ident_like(s: &str) -> bool {
    s.chars()
        .next_back()
        .map(|c| c.is_alphanumeric() || c == '_')
        .unwrap_or(false)
}

/// Slice indexing, the hot-path panic no name shows: `[` after an
/// expression-like token that is not a keyword.
fn check_hot_path_index(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if !under(ctx.rel, HOT_PATHS) {
        return;
    }
    for k in 1..ctx.toks.len() {
        let prev = ctx.toks[k - 1].text.as_str();
        // A lifetime before `[` is a slice type (`&'a [T]`).
        let indexes = (ident_like(prev) || prev == ")" || prev == "]")
            && !prev.starts_with('\'')
            && !NON_INDEX_PRECEDERS.contains(&prev);
        if ctx.toks[k].text == "[" && indexes && !ctx.parsed.test_mask[k] {
            push(
                out,
                ctx,
                &ctx.toks[k],
                "hot-path-panic",
                format!(
                    "slice indexing after `{prev}` in a hot-path module panics on \
                     out-of-bounds; use `get`, restructure, or suppress with a \
                     bounds proof"
                ),
            );
        }
    }
}

/// One lock acquisition extracted from a function body.
struct Acq {
    /// Last path segment of the locked field — the lock's name.
    name: String,
    /// Token index of the acquisition, or of the call that expands to it.
    at: usize,
    /// Set when the acquisition came from a one-level callee expansion.
    via: Option<String>,
}

/// Extract the acquisition sequence in token range `[start, end)`.
/// Recognizes `S::lock(&…name)` backend calls and `name.lock()` method
/// calls. Also returns call sites `(callee name, token index)` for the
/// one-level expansion.
fn lock_seq(toks: &[Tok], start: usize, end: usize) -> (Vec<Acq>, Vec<(String, usize)>) {
    let mut acqs = Vec::new();
    let mut calls = Vec::new();
    let mut k = start;
    while k < end {
        let t = &toks[k];
        if t.text == "lock" && toks.get(k + 1).map(|t| t.text.as_str()) == Some("(") {
            if k >= 2 && toks[k - 1].text == ":" && toks[k - 2].text == ":" {
                // Backend form: name = last ident before the closing paren.
                let mut depth = 0usize;
                let mut j = k + 1;
                let mut name = None;
                while j < end {
                    match toks[j].text.as_str() {
                        "(" => depth += 1,
                        ")" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        s if ident_like(s)
                            && s.chars()
                                .next()
                                .is_some_and(|c| c.is_alphabetic() || c == '_') =>
                        {
                            name = Some(s.to_string());
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(name) = name {
                    acqs.push(Acq {
                        name,
                        at: k,
                        via: None,
                    });
                }
            } else if k >= 2 && toks[k - 1].text == "." && ident_like(&toks[k - 2].text) {
                acqs.push(Acq {
                    name: toks[k - 2].text.clone(),
                    at: k,
                    via: None,
                });
            }
        } else if ident_like(&t.text)
            && toks.get(k + 1).map(|t| t.text.as_str()) == Some("(")
            && toks.get(k.wrapping_sub(1)).map(|t| t.text.as_str()) != Some("fn")
        {
            calls.push((t.text.clone(), k));
        }
        k += 1;
    }
    (acqs, calls)
}

fn check_lock_order(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    // The sync module is the lock layer's own implementation.
    if !under(ctx.rel, LOCK_ORDER_SCOPE) || ctx.rel.starts_with(SYNC_MODULE) {
        return;
    }
    let rank_of = |name: &str| LOCK_RANKS.iter().find(|(n, _)| *n == name).map(|(_, r)| *r);

    // Pass 1: unexpanded per-fn sequences, keyed by fn name.
    let fns = ctx.parsed.fns();
    type RawSeq<'a> = (&'a str, Vec<Acq>, Vec<(String, usize)>);
    let mut raw: Vec<RawSeq<'_>> = Vec::new();
    for f in &fns {
        if f.cfg_test {
            continue;
        }
        let (start, end) = f.body.expect("fns() yields bodied fns");
        let (acqs, calls) = lock_seq(ctx.toks, start, end);
        raw.push((f.name.as_str(), acqs, calls));
    }

    // Pass 2: expand same-file callees one level, in body order.
    for fi in 0..raw.len() {
        let mut seq: Vec<Acq> = Vec::new();
        {
            let (_, acqs, calls) = &raw[fi];
            // Merge own acquisitions and callee expansions by token order:
            // reuse line numbers as the merge key via token index. Simpler:
            // walk both lists by their source position.
            let mut ai = 0;
            let mut ci = 0;
            while ai < acqs.len() || ci < calls.len() {
                let a_line = acqs
                    .get(ai)
                    .map(|a| ctx.toks[a.at].line)
                    .unwrap_or(usize::MAX);
                let c_tok = calls.get(ci).map(|(_, k)| *k).unwrap_or(usize::MAX);
                let c_line = calls
                    .get(ci)
                    .map(|(_, k)| ctx.toks[*k].line)
                    .unwrap_or(usize::MAX);
                if a_line <= c_line && ai < acqs.len() {
                    let a = &acqs[ai];
                    seq.push(Acq {
                        name: a.name.clone(),
                        at: a.at,
                        via: None,
                    });
                    ai += 1;
                } else {
                    let (callee, _) = &calls[ci];
                    if let Some((_, callee_acqs, _)) = raw.iter().find(|(n, _, _)| n == callee) {
                        for a in callee_acqs {
                            seq.push(Acq {
                                name: a.name.clone(),
                                at: c_tok,
                                via: Some(callee.clone()),
                            });
                        }
                    }
                    ci += 1;
                }
            }
        }

        let fn_name = raw[fi].0;
        let mut prev: Option<(&str, u32)> = None;
        for a in &seq {
            let Some(rank) = rank_of(&a.name) else {
                let via = a
                    .via
                    .as_deref()
                    .map(|c| format!(" (via call to `{c}`)"))
                    .unwrap_or_default();
                push(
                    out,
                    ctx,
                    &ctx.toks[a.at],
                    "lock-order",
                    format!(
                        "fn `{fn_name}` acquires lock `{}`{via} which is not in the \
                         declared order table; add it to LOCK_RANKS in \
                         crates/check/src/lint/rules.rs with a documented rank",
                        a.name
                    ),
                );
                continue;
            };
            if let Some((pname, prank)) = prev {
                if rank < prank {
                    let via = a
                        .via
                        .as_deref()
                        .map(|c| format!(" (via call to `{c}`)"))
                        .unwrap_or_default();
                    push(
                        out,
                        ctx,
                        &ctx.toks[a.at],
                        "lock-order",
                        format!(
                            "fn `{fn_name}` acquires `{}` (rank {rank}){via} after \
                             `{pname}` (rank {prank}); the declared order is \
                             state < current",
                            a.name
                        ),
                    );
                }
            }
            prev = Some((
                rank_of(&a.name).map(|_| a.name.as_str()).unwrap_or(""),
                rank,
            ));
        }
    }
}
