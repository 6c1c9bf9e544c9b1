//! `xlint`: the repo's item-level static analyzer. No `syn`, no
//! network — a hand-rolled lexer ([`lexer`]) feeds a lightweight
//! recovery parser ([`parse`]) that recovers items, attributes, `use`
//! trees, and function bodies; a table-driven rule registry
//! ([`rules`]) runs over that; inline suppressions ([`suppress`])
//! waive individual findings with a mandatory justification; and
//! [`json`] renders machine-readable diagnostics for tooling.
//!
//! Run `xlint --explain` for the rule catalogue with rationale, or see
//! DESIGN.md §14 for the architecture. The policy tables (allowlists,
//! confinement prefixes, hot-path modules, the lock order) live at the
//! top of `rules.rs`.

pub mod json;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod suppress;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use rules::{Check, FileCtx, WorkspaceFile};

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Repo-relative, `/`-separated path.
    pub file: String,
    pub line: usize,
    /// 1-based column of the token the finding points at; 0 when it
    /// names a whole line or file. Orders findings within a line; the
    /// reports print only the line.
    pub column: usize,
    pub rule: &'static str,
    pub message: String,
}

impl Violation {
    /// Report order: source order by file, line and column, then rule.
    fn order(&self) -> (&str, usize, usize, &str) {
        (&self.file, self.line, self.column, self.rule)
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Lint one file: run every per-file rule, then apply inline
/// suppressions (which may add `malformed-suppression` /
/// `unused-suppression` findings of their own). `rel` is the
/// repo-relative `/`-separated path.
pub fn lint_file(rel: &str, src: &str) -> Vec<Violation> {
    lint_source(rel, src).0
}

/// [`lint_file`], plus the file's summary for the workspace-level rules,
/// read off the same tokens.
fn lint_source(rel: &str, src: &str) -> (Vec<Violation>, WorkspaceFile) {
    let (toks, comments) = lexer::lex_full(src);
    let parsed = parse::parse(&toks);
    let lines: Vec<&str> = src.lines().collect();
    let ctx = FileCtx {
        rel,
        lines: &lines,
        toks: &toks,
        parsed: &parsed,
    };
    let mut out = Vec::new();
    for rule in rules::registry() {
        if let Check::File(check) = rule.check {
            check(&ctx, &mut out);
        }
        rules::check_placement(rule.id, &ctx, &mut out);
    }
    let ids = rules::rule_ids();
    let set = suppress::scan(&comments, &parsed, &ids);
    let mut out = suppress::apply(rel, out, &set, |id| {
        rules::rule_by_id(id)
            .map(|r| r.suppressible)
            .unwrap_or(false)
    });
    out.sort_by(|a, b| a.order().cmp(&b.order()));
    let summary = WorkspaceFile {
        rel: rel.to_string(),
        uses_unsafe: !rules::unsafe_sites(&toks).is_empty(),
        has_deny: src.contains("#![deny(unsafe_op_in_unsafe_fn)]"),
        has_forbid: src.contains("#![forbid(unsafe_code)]"),
    };
    (out, summary)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            walk(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lint the whole workspace under `root` (the repo root containing
/// `crates/`). Returns every violation found; empty means clean.
pub fn lint_workspace(root: &Path) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);

    let mut summaries: Vec<WorkspaceFile> = Vec::new();
    for path in &files {
        let rel = rel_of(root, path);
        let Ok(src) = fs::read_to_string(path) else {
            out.push(Violation {
                file: rel,
                line: 1,
                column: 0,
                rule: "io",
                message: "unreadable source file".to_string(),
            });
            continue;
        };
        let (violations, summary) = lint_source(&rel, &src);
        out.extend(violations);
        summaries.push(summary);
    }

    for rule in rules::registry() {
        if let Check::Workspace(check) = rule.check {
            check(&summaries, &mut out);
        }
    }

    out.sort_by(|a, b| a.order().cmp(&b.order()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_pointer_type_is_exempt() {
        let src = "struct T { call: unsafe fn(*mut ()) }";
        let (violations, summary) = lint_source("crates/pool/src/x.rs", src);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(!summary.uses_unsafe);
    }

    #[test]
    fn uncommented_block_is_flagged_and_comment_accepted() {
        let bad = "fn f() { unsafe { g() } }";
        let vs = lint_file("crates/pool/src/x.rs", bad);
        assert!(vs.iter().any(|v| v.rule == "safety-comment"), "{vs:?}");
        let good =
            "fn f() {\n    // SAFETY: g is sound here because reasons.\n    unsafe { g() }\n}";
        assert!(lint_file("crates/pool/src/x.rs", good).is_empty());
    }

    #[test]
    fn unsafe_fn_doc_section_is_accepted() {
        let src = "/// Does a thing.\n///\n/// # Safety\n/// Caller keeps `p` alive.\npub unsafe fn f(p: *mut ()) {}";
        assert!(lint_file("crates/pool/src/x.rs", src).is_empty());
    }

    #[test]
    fn allowlist_is_enforced() {
        let src = "// SAFETY: commented, but still not allowed here.\nfn f() { unsafe { g() } }";
        let vs = lint_file("crates/svi/src/x.rs", src);
        assert!(vs.iter().any(|v| v.rule == "unsafe-allowlist"), "{vs:?}");
    }

    const TIME: &str = "use std::time::Instant;";
    const SYSTIME: &str = "let t = std::time::SystemTime::now();";
    const ARCH: &str = "use core::arch::x86_64::*;";
    const DETECT: &str = "if std::arch::is_x86_feature_detected!(\"avx2\") {}";
    const NET: &str = "use std::net::TcpListener;";
    const CONNECT: &str = "let s = std::net::TcpStream::connect(addr);";
    const FS: &str = "use std::fs;";
    const FS_WRITE: &str = "fn f() { std::fs::write(\"x\", b\"y\").unwrap(); }";
    /// Every placement name, but in comments and strings only.
    const MASKED: &str = "// Instant core::arch std::net std::fs now_ns BlockCache\n\
        let s = \"SystemTime std::arch std::net::TcpStream std::fs::write read_block_into\";\n\
        fn f() -> Checkpoint { g(\"Checkpoint::capture\") } // Option<Checkpoint>";
    const DIST: &str = "crates/core/src/sampler/distributed.rs";

    /// Lint each `(path, source, flagged)` case as if `source` lived at
    /// `path`: it reports `rule` when `flagged`, and nothing otherwise.
    fn placement(rule: &str, cases: &[(&str, &str, bool)]) {
        for (rel, src, flagged) in cases {
            let vs = lint_file(rel, src);
            if *flagged {
                assert!(vs.iter().any(|v| v.rule == rule), "{rel}: {vs:?}");
            } else {
                assert!(vs.is_empty(), "{rel} should be clean: {vs:?}");
            }
        }
    }

    #[test]
    fn std_sync_confinement() {
        let src = "use std::sync::Mutex;";
        placement(
            "std-sync-confinement",
            &[
                ("crates/pool/src/lib.rs", src, true),
                // The pool's worker loop and the fault plan stay generic
                // over `SyncBackend`: a direct `std::sync` import in either
                // would silently drop them out of the model-checked set.
                ("crates/pool/src/worker.rs", src, true),
                ("crates/netsim/src/fault.rs", src, true),
                ("crates/pool/src/sync/real.rs", src, false),
                ("crates/graph/src/lib.rs", src, false),
            ],
        );
    }

    #[test]
    fn time_confinement() {
        placement(
            "time-confinement",
            &[
                (DIST, TIME, true),
                ("crates/netsim/src/pipeline.rs", SYSTIME, true),
                // The clock crate and the bench harness are the two homes.
                ("crates/obs/src/clock.rs", TIME, false),
                ("crates/bench/src/timing.rs", TIME, false),
                ("crates/graph/src/lib.rs", MASKED, false),
            ],
        );
    }

    #[test]
    fn arch_confinement() {
        placement(
            "arch-confinement",
            &[
                ("crates/core/src/sampler/stage.rs", ARCH, true),
                ("crates/bench/src/bin/bench_phi.rs", DETECT, true),
                // The SIMD crate is the one home — src and tests alike.
                ("crates/simd/src/x86.rs", ARCH, false),
                ("crates/simd/tests/parity.rs", DETECT, false),
                ("crates/graph/src/lib.rs", MASKED, false),
            ],
        );
    }

    #[test]
    fn net_confinement() {
        placement(
            "net-confinement",
            &[
                (DIST, NET, true),
                ("crates/bench/src/bin/bench_serve.rs", CONNECT, true),
                // The serving crate is the one home — src and tests.
                ("crates/serve/src/server.rs", NET, false),
                ("crates/serve/tests/e2e.rs", CONNECT, false),
                ("crates/graph/src/lib.rs", MASKED, false),
            ],
        );
    }

    #[test]
    fn fs_confinement() {
        let test_only = "#[cfg(test)]\nmod t {\n    fn t() { let _ = std::fs::read(\"x\"); }\n}\n";
        placement(
            "fs-confinement",
            &[
                (DIST, FS, true),
                ("crates/serve/src/reload.rs", FS_WRITE, true),
                // The sanctioned persistence layers.
                ("crates/ooc/src/file.rs", FS, false),
                ("crates/graph/src/io.rs", FS, false),
                ("crates/core/src/checkpoint.rs", FS, false),
                ("crates/bench/src/bin/bench_graph.rs", FS, false),
                ("crates/mmsb/src/bin/mmsb.rs", FS, false),
                ("crates/check/src/lint/mod.rs", FS, false),
                ("crates/obs/src/export.rs", FS, false),
                // Integration tests and #[cfg(test)] code, everywhere.
                ("crates/serve/tests/e2e.rs", FS_WRITE, false),
                ("crates/core/src/eval.rs", test_only, false),
                ("crates/core/src/eval.rs", MASKED, false),
            ],
        );
    }

    #[test]
    fn simd_crate_is_allowlisted_but_still_needs_safety_comments() {
        // `unsafe` inside crates/simd passes the allowlist gate, but a
        // missing SAFETY comment must still fail the build there.
        let bare = "fn f() { unsafe { g() } }";
        let vs = lint_file("crates/simd/src/x86.rs", bare);
        assert!(
            !vs.iter().any(|v| v.rule == "unsafe-allowlist"),
            "crates/simd/src should be allowlisted: {vs:?}"
        );
        assert!(vs.iter().any(|v| v.rule == "safety-comment"), "{vs:?}");
        let good =
            "fn f() {\n    // SAFETY: token proves the feature is present.\n    unsafe { g() }\n}";
        assert!(lint_file("crates/simd/src/x86.rs", good).is_empty());
        // Outside the crate the allowlist still bites.
        let vs = lint_file("crates/core/src/workspace.rs", good);
        assert!(vs.iter().any(|v| v.rule == "unsafe-allowlist"), "{vs:?}");
    }

    // ----- new-rule unit coverage (fixtures assert exact JSON) -----

    #[test]
    fn hot_path_panic_flags_and_test_mod_is_exempt() {
        let src = "\
fn f(v: &[f64], i: usize) -> f64 {
    let x = v.first().unwrap();
    *x + v[i]
}
#[cfg(test)]
mod tests {
    fn t(v: &[f64]) -> f64 { v[0] + v.first().unwrap() }
}
";
        let vs = lint_file("crates/simd/src/phi.rs", src);
        let panics: Vec<_> = vs.iter().filter(|v| v.rule == "hot-path-panic").collect();
        assert_eq!(panics.len(), 2, "{vs:?}");
        assert_eq!(panics[0].line, 2);
        assert_eq!(panics[1].line, 3);
        // Two findings on one line list in source order, whichever
        // checker emitted them first.
        let vs = lint_file(
            "crates/simd/src/phi.rs",
            "fn g(w: &[f64]) -> f64 { w.get(0).unwrap()[0] }\n",
        );
        let panics: Vec<_> = vs.iter().filter(|v| v.rule == "hot-path-panic").collect();
        assert_eq!(panics.len(), 2, "{vs:?}");
        assert!(panics[0].message.contains(".unwrap()"), "{vs:?}");
        assert!(panics[1].message.contains("slice indexing"), "{vs:?}");
        assert!(panics[0].column < panics[1].column, "{vs:?}");
        // Same code outside a hot path is fine.
        assert!(
            lint_file("crates/core/src/eval.rs", "fn f(v: &[f64]) -> f64 { v[0] }")
                .iter()
                .all(|v| v.rule != "hot-path-panic")
        );
    }

    #[test]
    fn hot_path_panic_spares_non_index_brackets() {
        let src = "\
fn f() -> [f64; 4] {
    let a: [f64; 4] = [0.0; 4];
    let [x, ..] = a;
    let b = [1.0, 2.0];
    if let [y] = &b[..1] { return [*y; 4]; }
    a
}
fn g<'a, T>(v: &'a [T], w: &'static [u8]) -> impl Iterator<Item = (&'a [T], bool)> {}
";
        let vs = lint_file("crates/simd/src/phi.rs", src);
        // Only `b[..1]` is a real index expression here: a lifetime
        // before `[` is a slice type, not an indexed variable.
        let panics: Vec<_> = vs.iter().filter(|v| v.rule == "hot-path-panic").collect();
        assert_eq!(panics.len(), 1, "{vs:?}");
        assert_eq!(panics[0].line, 5);
    }

    #[test]
    fn hot_path_alloc_flags_the_catalogue() {
        let src = "\
fn f(n: usize) -> Vec<f64> {
    let v: Vec<f64> = Vec::with_capacity(n);
    let w = vec![0.0; n];
    let s = format!(\"{n}\");
    let c: Vec<u8> = s.bytes().collect();
    drop((w, c));
    v
}
";
        let vs = lint_file("crates/serve/src/http.rs", src);
        let allocs: Vec<usize> = vs
            .iter()
            .filter(|v| v.rule == "hot-path-alloc")
            .map(|v| v.line)
            .collect();
        assert_eq!(allocs, [2, 3, 4, 5], "{vs:?}");
    }

    #[test]
    fn suppression_waives_hot_path_rules_item_wide() {
        let src = "\
// xlint: allow(hot-path-panic) — every index is bounded by `n` below.
fn kernel(v: &[f64], n: usize) -> f64 {
    let mut acc = 0.0;
    for i in 0..n { acc += v[i]; }
    acc
}
";
        let vs = lint_file("crates/simd/src/lanes.rs", src);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn unused_and_malformed_suppressions_fail() {
        let clean = "// xlint: allow(hot-path-panic) — nothing here needs it.\nfn f() {}\n";
        let vs = lint_file("crates/simd/src/lanes.rs", clean);
        assert!(vs.iter().any(|v| v.rule == "unused-suppression"), "{vs:?}");
        let nojust = "// xlint: allow(hot-path-panic)\nfn f(v: &[f64]) -> f64 { v[0] }\n";
        let vs = lint_file("crates/simd/src/lanes.rs", nojust);
        assert!(
            vs.iter().any(|v| v.rule == "malformed-suppression"),
            "{vs:?}"
        );
        // And the violation itself still stands.
        assert!(vs.iter().any(|v| v.rule == "hot-path-panic"), "{vs:?}");
    }

    #[test]
    fn lock_order_rank_inversion_is_flagged() {
        let src = "\
fn bad<S: SyncBackend>(&self) {
    let slot = S::lock(&self.current);
    let mut st = S::lock(&self.shared.state);
    drop((slot, st));
}
";
        let vs = lint_file("crates/serve/src/cell.rs", src);
        let lo: Vec<_> = vs.iter().filter(|v| v.rule == "lock-order").collect();
        assert_eq!(lo.len(), 1, "{vs:?}");
        assert_eq!(lo[0].line, 3);
        assert!(lo[0].message.contains("after `current`"));
    }

    #[test]
    fn lock_order_in_order_and_undeclared() {
        let good = "\
fn ok<S: SyncBackend>(&self) {
    let mut st = S::lock(&self.shared.state);
    let slot = S::lock(&self.current);
    drop((st, slot));
}
";
        assert!(lint_file("crates/serve/src/cell.rs", good)
            .iter()
            .all(|v| v.rule != "lock-order"));
        let unknown = "fn f(&self) { let g = self.mystery.lock(); drop(g); }\n";
        let vs = lint_file("crates/netsim/src/store.rs", unknown);
        assert!(
            vs.iter()
                .any(|v| v.rule == "lock-order" && v.message.contains("mystery")),
            "{vs:?}"
        );
    }

    #[test]
    fn lock_order_expands_same_file_callees_one_level() {
        let src = "\
fn take_current<S: SyncBackend>(&self) {
    let slot = S::lock(&self.current);
    drop(slot);
}
fn caller<S: SyncBackend>(&self) {
    let slot = S::lock(&self.current);
    take_current(self);
    drop(slot);
}
";
        // caller: current (rank 1) then callee's current (rank 1) — equal
        // ranks pass. But locking state after calling take_current fails:
        let vs = lint_file("crates/serve/src/cell.rs", src);
        assert!(vs.iter().all(|v| v.rule != "lock-order"), "{vs:?}");
        let bad = "\
fn take_current<S: SyncBackend>(&self) {
    let slot = S::lock(&self.current);
    drop(slot);
}
fn caller<S: SyncBackend>(&self) {
    take_current(self);
    let st = S::lock(&self.shared.state);
    drop(st);
}
";
        let vs = lint_file("crates/serve/src/cell.rs", bad);
        assert!(
            vs.iter()
                .any(|v| v.rule == "lock-order" && v.message.contains("state")),
            "{vs:?}"
        );
    }

    #[test]
    fn hash_iter_flags_in_scope_and_spares_fx_and_tests() {
        let map = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); drop(m); }\n";
        let fx = "use mmsb_graph::FxHashMap;\nfn f() { let m: FxHashMap<u32, u32> = FxHashMap::default(); drop(m); }\n";
        let test_only = "#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n    fn t() { let s: HashSet<u32> = HashSet::new(); drop(s); }\n}\n";
        placement(
            "hash-iter",
            &[
                ("crates/core/src/eval.rs", map, true),
                // FxHash types stay legal, the graph crate hosts the
                // hasher itself, and test mods are exempt.
                ("crates/core/src/eval.rs", fx, false),
                ("crates/graph/src/hasher.rs", map, false),
                ("crates/netsim/src/partition.rs", test_only, false),
            ],
        );
    }

    #[test]
    fn layer_boundary() {
        let cache = "use mmsb_ooc::BlockCache;";
        let read = "f.read_block_into(b, &mut v)?;";
        let clock_in_test = "#[cfg(test)]\nmod t { fn t() { now_ns(); } }";
        let field = "struct D { c: Option<crate::checkpoint::Checkpoint> }";
        placement(
            "layer-boundary",
            &[
                // Each row binds its own files, test code included.
                ("crates/core/src/workspace.rs", cache, true),
                ("crates/ooc/src/cache.rs", cache, false),
                ("crates/ooc/src/region.rs", read, true),
                ("crates/ooc/src/file.rs", read, false),
                ("crates/netsim/src/dkv.rs", clock_in_test, true),
                (DIST, field, true),
                (DIST, MASKED, false),
                ("crates/netsim/src/cluster.rs", MASKED, false),
            ],
        );
    }
}
