//! The rule registry: every lint this analyzer runs, as data.
//!
//! Each [`Rule`] bundles an id, a one-line summary (the README table),
//! a long explanation (`xlint --explain <rule>`), a path scope, a
//! suppressibility flag, and its checker. Adding a rule means adding
//! one table entry and one function — the driver in `mod.rs` and the
//! suppression engine need no changes.
//!
//! Policy tables (allowlists, confinement prefixes, the lock order,
//! hot-path module list) live at the top of this file so a policy
//! change is a one-table diff.

use super::lexer::Tok;
use super::parse::ParsedFile;
use super::Violation;

// ---------------------------------------------------------------------
// Policy tables.
// ---------------------------------------------------------------------

/// Crates that must carry `#![forbid(unsafe_code)]` in their lib root.
pub const FORBID_CRATES: &[&str] = &[
    "rand", "graph", "svi", "comm", "netsim", "bench", "mmsb", "serve",
];

/// Path prefixes (relative to the repo root, `/`-separated) where
/// `unsafe` is permitted.
pub const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/pool/src",
    "crates/dkv/src",
    "crates/simd/src",
    "crates/core/src/sampler/driver.rs",
    "crates/core/tests/zero_alloc.rs",
    "crates/serve/tests/zero_alloc_serve.rs",
    "crates/check/src/model",
    "crates/check/tests",
];

/// Within these crates, `std::sync` is confined to the sync module.
pub const SYNC_CONFINED: &[&str] = &["crates/pool/src", "crates/dkv/src"];
pub const SYNC_MODULE: &str = "crates/pool/src/sync";

/// Path prefixes where the wall clock may be named directly. Everyone
/// else goes through `mmsb_obs::clock`.
pub const TIME_ALLOWED: &[&str] = &["crates/obs", "crates/bench"];
/// Path prefix where `core::arch` / `std::arch` may be named. Everyone
/// else consumes SIMD through `mmsb-simd`'s safe dispatchers.
pub const ARCH_ALLOWED: &str = "crates/simd";
/// Path prefix where `std::net` may be named. Everyone else drives a
/// server through `mmsb-serve`'s public API.
pub const NET_ALLOWED: &str = "crates/serve";
/// Path prefixes where `std::fs` may be named: the sanctioned
/// persistence layers (out-of-core graph files, the edge-list reader,
/// checkpointing, obs export), the harnesses whose whole job is files
/// (bench, CLI), and the analyzer's own workspace walk. Integration
/// tests (`tests/` files) and `#[cfg(test)]` code are exempt
/// everywhere — tempfile round-trips are how persistence is tested.
pub const FS_ALLOWED: &[&str] = &[
    "crates/ooc/src",
    "crates/graph/src/io.rs",
    "crates/core/src/checkpoint.rs",
    "crates/bench",
    "crates/mmsb",
    "crates/check/src/lint",
    "crates/obs/src/export.rs",
];
/// Clock-type tokens the time-confinement rule forbids elsewhere.
pub const TIME_TOKENS: &[&str] = &["Instant", "SystemTime"];

/// The designated hot-path modules: the request path of the serving
/// layer, the sampler's inner step driver and its per-vertex / per-pair
/// stage functions, the SIMD kernels, and the pool's worker loop. These
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
    "crates/simd/src/phi.rs",
    "crates/simd/src/theta.rs",
    "crates/simd/src/edge.rs",
    "crates/simd/src/math.rs",
    "crates/simd/src/lanes.rs",
    "crates/pool/src/worker.rs",
];

/// Crates whose computed results feed trained state or published
/// artifacts — where `HashMap`/`HashSet` iteration order (randomized
/// per process by std's `RandomState`) could silently break bitwise
/// determinism. `mmsb_graph::FxHashMap`/`FxHashSet` (fixed-seed
/// FxHash) stay legal: their iteration order is reproducible.
pub const HASH_ITER_SCOPE: &[&str] = &[
    "crates/core/src",
    "crates/dkv/src",
    "crates/comm/src",
    "crates/netsim/src",
    "crates/simd/src",
    "crates/svi/src",
];

/// Crates whose locks participate in the declared acquisition order.
pub const LOCK_ORDER_SCOPE: &[&str] = &[
    "crates/pool/src",
    "crates/serve/src",
    "crates/dkv/src",
];

/// The declared partial order on named locks: a function may only
/// acquire locks in non-decreasing rank. `state` is the pool's shared
/// scheduling state (innermost critical sections, held across condvar
/// waits); `model_path` is the serve reload path; `current` is the
/// `SnapshotCell` slot — the writer-side publish discipline says it is
/// taken last, after any reload bookkeeping.
pub const LOCK_RANKS: &[(&str, u32)] = &[("state", 0), ("model_path", 1), ("current", 2)];

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

/// Where a rule runs.
pub enum Scope {
    /// Every file (the rule gates itself on the policy tables).
    All,
    /// Only files under one of these path prefixes.
    Under(&'static [&'static str]),
}

impl Scope {
    /// Does the rule run on `rel`?
    pub fn applies(&self, rel: &str) -> bool {
        match self {
            Scope::All => true,
            Scope::Under(prefixes) => prefixes.iter().any(|p| rel.starts_with(p)),
        }
    }
}

/// A rule's checker.
pub enum Check {
    /// Runs once per file in scope.
    File(fn(&FileCtx<'_>, &mut Vec<Violation>)),
    /// Runs once over the whole workspace file list.
    Workspace(fn(&[WorkspaceFile], &mut Vec<Violation>)),
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
    /// Path scope.
    pub scope: Scope,
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

static REGISTRY: [Rule; 16] = [
    Rule {
        id: "safety-comment",
        summary: "every unsafe site carries a `// SAFETY:` justification",
        explain: "Every `unsafe` block / `unsafe impl` / `unsafe trait` / `unsafe fn` must be \
justified: a `// SAFETY:` comment on the same line or within the six preceding lines, or (for \
`unsafe fn`) a `# Safety` section in the contiguous doc comment directly above. `unsafe fn(...)` \
function-pointer *types* are exempt — they declare no new obligation site. The comment is the \
reviewer's proof obligation: it must say which invariant makes the operation sound.",
        scope: Scope::All,
        suppressible: false,
        check: Check::File(check_safety_comment),
    },
    Rule {
        id: "unsafe-allowlist",
        summary: "unsafe code only in the documented, model-checked modules",
        explain: "`unsafe` may appear only in the modules whose invariants are documented and \
model-checked: crates/pool/src, crates/dkv/src, crates/simd/src (intrinsics behind proof tokens), \
crates/core/src/sampler/driver.rs, the counting-allocator tests, and the checker's own model \
backend + protocol ports. Extending the allowlist is a reviewed table edit in \
crates/check/src/lint/rules.rs, never an inline waiver — which is why this rule is not \
suppressible.",
        scope: Scope::All,
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
        scope: Scope::All,
        suppressible: false,
        check: Check::Workspace(check_deny_attr),
    },
    Rule {
        id: "forbid-attr",
        summary: "no-unsafe crates pin that with #![forbid(unsafe_code)]",
        explain: "The crates that need no unsafe at all (rand, graph, svi, comm, netsim, bench, \
mmsb, serve) must pin that with `#![forbid(unsafe_code)]`, so a future `unsafe` block is a \
compile error rather than a silent scope creep.",
        scope: Scope::All,
        suppressible: false,
        check: Check::Workspace(check_forbid_attr),
    },
    Rule {
        id: "std-sync-confinement",
        summary: "pool/dkv go through SyncBackend, never std::sync directly",
        explain: "Inside crates/pool/src and crates/dkv/src, `std::sync` may be named only in the \
sync module (crates/pool/src/sync/): all other code must go through the `SyncBackend` layer so \
`mmsb-check` can model it. The failure layer is deliberately inside this fence — the \
faulting store wrapper may synchronize only through the backend, which is what would let the \
model tests explore its races.",
        scope: Scope::Under(SYNC_CONFINED),
        suppressible: false,
        check: Check::File(check_sync_confinement),
    },
    Rule {
        id: "time-confinement",
        summary: "wall-clock types only under crates/obs and crates/bench",
        explain: "`std::time::Instant` / `SystemTime` may be named only under crates/obs and \
crates/bench. Everything else reads the clock through `mmsb_obs::clock` (Stopwatch, now_ns), so \
instrumentation shares one anchor, the off level provably never touches the clock, and the \
virtual-time simulation never silently mixes in wall-clock reads.",
        scope: Scope::All,
        suppressible: false,
        check: Check::File(check_time_confinement),
    },
    Rule {
        id: "arch-confinement",
        summary: "core::arch / std::arch only under crates/simd",
        explain: "`core::arch` / `std::arch` (intrinsics, feature detection) may be named only \
under crates/simd. All other crates consume SIMD through `mmsb-simd`'s safe dispatchers, which \
keeps every intrinsic behind one crate's proof-token safety model and its bitwise-parity tests.",
        scope: Scope::All,
        suppressible: false,
        check: Check::File(check_arch_confinement),
    },
    Rule {
        id: "net-confinement",
        summary: "std::net only under crates/serve",
        explain: "`std::net` (sockets, listeners, addresses) may be named only under crates/serve \
(src and tests alike). Every other crate talks to a server through `mmsb-serve`'s public API — \
ServeHandle, loadgen — so there is exactly one place where real I/O happens, one shutdown \
protocol, and the simulated transports can never silently grow a real socket.",
        scope: Scope::All,
        suppressible: false,
        check: Check::File(check_net_confinement),
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
        scope: Scope::All,
        suppressible: false,
        check: Check::File(check_fs_confinement),
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
        scope: Scope::Under(HOT_PATHS),
        suppressible: true,
        check: Check::File(check_hot_path_panic),
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
        scope: Scope::Under(HOT_PATHS),
        suppressible: true,
        check: Check::File(check_hot_path_alloc),
    },
    Rule {
        id: "lock-order",
        summary: "lock acquisitions follow the declared order: state < model_path < current",
        explain: "In crates/pool, crates/serve, and crates/dkv, every named lock is ranked \
(state=0, model_path=1, current=2) and each function must acquire locks in non-decreasing rank \
— the static form of SnapshotCell's writer-side discipline. The checker extracts per-function \
acquisition sequences (`S::lock(&…path)` backend calls and `.lock()` method calls), expands \
same-file callees one level, and flags rank inversions and locks missing from the table \
(extend LOCK_RANKS in crates/check/src/lint/rules.rs when a genuinely new lock is born). \
Token-level limits: it cannot see guard drops, so a sequential re-acquire looks like nesting — \
equal ranks are allowed, and a deliberate drop-then-lock-lower pattern needs a suppression \
explaining the drop. Code under `#[cfg(test)]` is exempt.",
        scope: Scope::Under(LOCK_ORDER_SCOPE),
        suppressible: true,
        check: Check::File(check_lock_order),
    },
    Rule {
        id: "hash-iter",
        summary: "no std HashMap/HashSet in result-affecting crates",
        explain: "std's HashMap/HashSet seed their hasher per process (RandomState), so iteration \
order differs run to run. In the crates whose outputs feed trained state or published artifacts \
(core, dkv, comm, netsim, simd, svi) that order can leak into float accumulation and break the \
bitwise-determinism guarantees the seeded-rerun tests pin. Use BTreeMap/BTreeSet (ordered) or \
`mmsb_graph::FxHashMap`/`FxHashSet` (fixed-seed, reproducible iteration). Code under \
`#[cfg(test)]` is exempt — test assertions on membership don't feed results.",
        scope: Scope::Under(HASH_ITER_SCOPE),
        suppressible: true,
        check: Check::File(check_hash_iter),
    },
    Rule {
        id: "malformed-suppression",
        summary: "xlint markers must be `allow(<rule>) — <justification>`",
        explain: "An `// xlint:` comment that is not `allow(<known-rule>) — <non-empty \
justification>` is itself an error: a typo'd marker would otherwise silently suppress nothing \
(or look like it suppresses something). The justification is mandatory — every waiver carries \
its reason in the diff forever.",
        scope: Scope::All,
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
        scope: Scope::All,
        suppressible: false,
        check: Check::Meta,
    },
    Rule {
        id: "io",
        summary: "every workspace source file must be readable",
        explain: "Raised when a .rs file under crates/ cannot be read during the workspace walk. \
An unreadable file is a file the analyzer cannot vouch for, so it fails loudly instead of \
skipping.",
        scope: Scope::All,
        suppressible: false,
        check: Check::Meta,
    },
];

// ---------------------------------------------------------------------
// Shared helpers.
// ---------------------------------------------------------------------

/// `unsafe` sites in the token stream, with a human label. Skips
/// `unsafe fn(...)` function-pointer types (no obligation site).
fn unsafe_sites(toks: &[Tok]) -> Vec<(usize, &'static str)> {
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

/// Does `toks[k..]` start the 4-token path `seg1 :: seg2`?
fn is_path2(toks: &[Tok], k: usize, seg1: &[&str], seg2: &str) -> bool {
    k + 3 < toks.len()
        && seg1.contains(&toks[k].text.as_str())
        && toks[k + 1].text == ":"
        && toks[k + 2].text == ":"
        && toks[k + 3].text == seg2
}

fn push(out: &mut Vec<Violation>, ctx: &FileCtx<'_>, line: usize, rule: &'static str, message: String) {
    out.push(Violation {
        file: ctx.rel.to_string(),
        line,
        rule,
        message,
    });
}

// ---------------------------------------------------------------------
// Ported rules (behavior pinned by xlint_gate.rs).
// ---------------------------------------------------------------------

fn check_safety_comment(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    for (k, what) in unsafe_sites(ctx.toks) {
        let line = ctx.toks[k].line;
        if !has_safety_near(ctx.lines, line) {
            push(
                out,
                ctx,
                line,
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
    if UNSAFE_ALLOWLIST.iter().any(|p| ctx.rel.starts_with(p)) {
        return;
    }
    for (k, what) in unsafe_sites(ctx.toks) {
        push(
            out,
            ctx,
            ctx.toks[k].line,
            "unsafe-allowlist",
            format!(
                "{what} outside the unsafe allowlist; move the unsafety into \
                 an allowlisted module or extend the list in crates/check/src/lint/rules.rs \
                 with a documented invariant"
            ),
        );
    }
}

fn check_time_confinement(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if TIME_ALLOWED.iter().any(|p| ctx.rel.starts_with(p)) {
        return;
    }
    for t in ctx.toks {
        if TIME_TOKENS.contains(&t.text.as_str()) {
            push(
                out,
                ctx,
                t.line,
                "time-confinement",
                format!(
                    "`{}` named outside crates/obs and crates/bench; read time \
                     through `mmsb_obs::clock` (Stopwatch / now_ns) so the shared \
                     anchor and the obs off-level guarantees hold",
                    t.text
                ),
            );
        }
    }
}

fn check_arch_confinement(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if ctx.rel.starts_with(ARCH_ALLOWED) {
        return;
    }
    for k in 0..ctx.toks.len() {
        if is_path2(ctx.toks, k, &["core", "std"], "arch") {
            push(
                out,
                ctx,
                ctx.toks[k].line,
                "arch-confinement",
                format!(
                    "`{}::arch` named outside crates/simd; call intrinsics through \
                     `mmsb_simd`'s safe dispatchers so every unsafe lane operation \
                     stays behind the proof-token model and its parity tests",
                    ctx.toks[k].text
                ),
            );
        }
    }
}

fn check_net_confinement(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if ctx.rel.starts_with(NET_ALLOWED) {
        return;
    }
    for k in 0..ctx.toks.len() {
        if is_path2(ctx.toks, k, &["std"], "net") {
            push(
                out,
                ctx,
                ctx.toks[k].line,
                "net-confinement",
                "`std::net` named outside crates/serve; drive a server \
                 through `mmsb_serve` (ServeHandle, loadgen) so real \
                 socket I/O stays in one crate with one shutdown protocol"
                    .to_string(),
            );
        }
    }
}

fn check_fs_confinement(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if FS_ALLOWED.iter().any(|p| ctx.rel.starts_with(p)) || ctx.rel.contains("/tests/") {
        return;
    }
    for k in 0..ctx.toks.len() {
        if ctx.parsed.test_mask[k] {
            continue;
        }
        if is_path2(ctx.toks, k, &["std"], "fs") {
            push(
                out,
                ctx,
                ctx.toks[k].line,
                "fs-confinement",
                "`std::fs` named outside the sanctioned persistence layers; \
                 route durable bytes through mmsb_ooc / graph::io / Checkpoint \
                 / obs export, or extend FS_ALLOWED in \
                 crates/check/src/lint/rules.rs"
                    .to_string(),
            );
        }
    }
}

fn check_sync_confinement(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if ctx.rel.starts_with(SYNC_MODULE) {
        return;
    }
    for k in 0..ctx.toks.len() {
        if is_path2(ctx.toks, k, &["std"], "sync") {
            push(
                out,
                ctx,
                ctx.toks[k].line,
                "std-sync-confinement",
                "direct `std::sync` reference outside the sync module; go \
                 through `mmsb_pool::sync` (SyncBackend or the re-exports in \
                 `sync::real`) so the protocol stays model-checkable"
                    .to_string(),
            );
        }
    }
}

fn check_deny_attr(files: &[WorkspaceFile], out: &mut Vec<Violation>) {
    // Per-crate unsafe presence (src/ only — integration tests are
    // their own crate roots and are checked individually).
    let mut crate_uses: std::collections::BTreeMap<&str, bool> = Default::default();
    for f in files {
        let Some(krate) = f.rel.strip_prefix("crates/").and_then(|r| r.split('/').next())
        else {
            continue;
        };
        if f.rel.starts_with(&format!("crates/{krate}/src/")) {
            *crate_uses.entry(krate).or_default() |= f.uses_unsafe;
        } else if f.uses_unsafe && !f.has_deny {
            out.push(Violation {
                file: f.rel.clone(),
                line: 1,
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

/// Macros whose expansion is a panic.
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];

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

fn check_hot_path_panic(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    let toks = ctx.toks;
    for k in 0..toks.len() {
        if ctx.parsed.test_mask[k] {
            continue;
        }
        let t = &toks[k];
        let next = toks.get(k + 1).map(|t| t.text.as_str()).unwrap_or("");
        if (t.text == "unwrap" || t.text == "expect")
            && next == "("
            && k > 0
            && toks[k - 1].text == "."
        {
            push(
                out,
                ctx,
                t.line,
                "hot-path-panic",
                format!(
                    "`.{}()` in a hot-path module can panic; handle the error or \
                     prove it impossible and suppress with justification",
                    t.text
                ),
            );
        } else if PANIC_MACROS.contains(&t.text.as_str()) && next == "!" {
            push(
                out,
                ctx,
                t.line,
                "hot-path-panic",
                format!(
                    "`{}!` in a hot-path module aborts the worker; return an error \
                     instead",
                    t.text
                ),
            );
        } else if t.text == "[" && k > 0 {
            let prev = toks[k - 1].text.as_str();
            // A lifetime before `[` is a slice type (`&'a [T]`).
            let indexes = (ident_like(prev) || prev == ")" || prev == "]")
                && !prev.starts_with('\'')
                && !NON_INDEX_PRECEDERS.contains(&prev);
            if indexes {
                push(
                    out,
                    ctx,
                    t.line,
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
}

/// `(owner path, method set)` for allocating associated-fn calls.
const ALLOC_PATHS: &[(&str, &[&str])] = &[
    ("Vec", &["new", "with_capacity", "from"]),
    ("Box", &["new"]),
    ("String", &["new", "with_capacity", "from"]),
];
/// Allocating macros.
const ALLOC_MACROS: &[&str] = &["vec", "format"];
/// Allocating method calls (flagged after a `.`).
const ALLOC_METHODS: &[&str] = &["collect", "to_vec", "to_string", "to_owned"];

fn check_hot_path_alloc(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    let toks = ctx.toks;
    for k in 0..toks.len() {
        if ctx.parsed.test_mask[k] {
            continue;
        }
        let t = &toks[k];
        let next = toks.get(k + 1).map(|t| t.text.as_str()).unwrap_or("");
        for (owner, methods) in ALLOC_PATHS {
            if t.text == *owner {
                for m in *methods {
                    if is_path2(toks, k, &[owner], m) {
                        push(
                            out,
                            ctx,
                            t.line,
                            "hot-path-alloc",
                            format!(
                                "`{owner}::{m}` allocates in a hot-path module; reuse a \
                                 preallocated buffer, or suppress if this is setup-time \
                                 construction"
                            ),
                        );
                    }
                }
            }
        }
        if ALLOC_MACROS.contains(&t.text.as_str()) && next == "!" {
            push(
                out,
                ctx,
                t.line,
                "hot-path-alloc",
                format!(
                    "`{}!` allocates in a hot-path module; reuse a preallocated \
                     buffer, or suppress if this is setup-time construction",
                    t.text
                ),
            );
        }
        if ALLOC_METHODS.contains(&t.text.as_str())
            && k > 0
            && toks[k - 1].text == "."
            && (next == "(" || next == ":")
        {
            push(
                out,
                ctx,
                t.line,
                "hot-path-alloc",
                format!(
                    "`.{}()` allocates in a hot-path module; write into a caller \
                     buffer instead",
                    t.text
                ),
            );
        }
    }
}

/// One lock acquisition extracted from a function body.
struct Acq {
    /// Last path segment of the locked field — the lock's name.
    name: String,
    line: usize,
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
                        s if ident_like(s) && s.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_') => {
                            name = Some(s.to_string());
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(name) = name {
                    acqs.push(Acq {
                        name,
                        line: t.line,
                        via: None,
                    });
                }
            } else if k >= 2 && toks[k - 1].text == "." && ident_like(&toks[k - 2].text) {
                acqs.push(Acq {
                    name: toks[k - 2].text.clone(),
                    line: t.line,
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
    if ctx.rel.starts_with(SYNC_MODULE) {
        return; // the lock layer's own implementation
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
                let a_line = acqs.get(ai).map(|a| a.line).unwrap_or(usize::MAX);
                let c_tok = calls.get(ci).map(|(_, k)| *k).unwrap_or(usize::MAX);
                let c_line = calls
                    .get(ci)
                    .map(|(_, k)| ctx.toks[*k].line)
                    .unwrap_or(usize::MAX);
                if a_line <= c_line && ai < acqs.len() {
                    let a = &acqs[ai];
                    seq.push(Acq {
                        name: a.name.clone(),
                        line: a.line,
                        via: None,
                    });
                    ai += 1;
                } else {
                    let (callee, _) = &calls[ci];
                    if let Some((_, callee_acqs, _)) =
                        raw.iter().find(|(n, _, _)| n == callee)
                    {
                        for a in callee_acqs {
                            seq.push(Acq {
                                name: a.name.clone(),
                                line: ctx.toks[c_tok].line,
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
                    a.line,
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
                        a.line,
                        "lock-order",
                        format!(
                            "fn `{fn_name}` acquires `{}` (rank {rank}){via} after \
                             `{pname}` (rank {prank}); the declared order is \
                             state < model_path < current",
                            a.name
                        ),
                    );
                }
            }
            prev = Some((rank_of(&a.name).map(|_| a.name.as_str()).unwrap_or(""), rank));
        }
    }
}

fn check_hash_iter(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    for (k, t) in ctx.toks.iter().enumerate() {
        if ctx.parsed.test_mask[k] {
            continue;
        }
        if t.text == "HashMap" || t.text == "HashSet" {
            push(
                out,
                ctx,
                t.line,
                "hash-iter",
                format!(
                    "std `{}` in a result-affecting crate: its per-process hasher seed \
                     makes iteration order nondeterministic; use BTreeMap/BTreeSet or \
                     `mmsb_graph::FxHashMap`/`FxHashSet`",
                    t.text
                ),
            );
        }
    }
}
