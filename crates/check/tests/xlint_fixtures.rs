//! Fixture gate for the item-level rules and the placement rules that
//! carry fixtures: one violating and one conforming fixture per rule,
//! with the violating side pinned to the *exact* `--json` document —
//! file, line, rule, and message text. A wording or line-attribution drift in any rule fails
//! here, not in a downstream consumer.

use std::path::Path;

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/xlint")
        .join(name);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("fixture {}: {e}", p.display()))
}

/// Lint a fixture as if it lived at `rel`, returning the `--json`
/// document its violations render to.
fn lint_as(rel: &str, name: &str) -> String {
    let violations = mmsb_check::lint::lint_file(rel, &fixture(name));
    let doc = mmsb_check::lint::json::render(&violations);
    // Whatever we assert on below is also schema-valid by construction.
    mmsb_check::lint::json::validate_schema(&doc).expect("fixture document validates");
    doc
}

const EMPTY: &str = "{\"version\":1,\"count\":0,\"violations\":[]}";

#[test]
fn hot_path_panic_fixture_pair() {
    assert_eq!(
        lint_as("crates/simd/src/math.rs", "hot_path_panic_bad.rs"),
        "{\"version\":1,\"count\":3,\"violations\":[\
         {\"file\":\"crates/simd/src/math.rs\",\"line\":4,\"rule\":\"hot-path-panic\",\
         \"message\":\"`.unwrap()` in a hot-path module can panic; handle the error or \
         prove it impossible and suppress with justification\"},\
         {\"file\":\"crates/simd/src/math.rs\",\"line\":5,\"rule\":\"hot-path-panic\",\
         \"message\":\"slice indexing after `xs` in a hot-path module panics on \
         out-of-bounds; use `get`, restructure, or suppress with a bounds proof\"},\
         {\"file\":\"crates/simd/src/math.rs\",\"line\":7,\"rule\":\"hot-path-panic\",\
         \"message\":\"`panic!` in a hot-path module aborts the worker; return an error \
         instead\"}]}"
    );
    assert_eq!(
        lint_as("crates/simd/src/math.rs", "hot_path_panic_ok.rs"),
        EMPTY
    );
}

#[test]
fn hot_path_alloc_fixture_pair() {
    assert_eq!(
        lint_as("crates/simd/src/math.rs", "hot_path_alloc_bad.rs"),
        "{\"version\":1,\"count\":4,\"violations\":[\
         {\"file\":\"crates/simd/src/math.rs\",\"line\":4,\"rule\":\"hot-path-alloc\",\
         \"message\":\"`Vec::new` allocates in a hot-path module; reuse a preallocated \
         buffer, or suppress if this is setup-time construction\"},\
         {\"file\":\"crates/simd/src/math.rs\",\"line\":5,\"rule\":\"hot-path-alloc\",\
         \"message\":\"`vec!` allocates in a hot-path module; reuse a preallocated \
         buffer, or suppress if this is setup-time construction\"},\
         {\"file\":\"crates/simd/src/math.rs\",\"line\":6,\"rule\":\"hot-path-alloc\",\
         \"message\":\"`format!` allocates in a hot-path module; reuse a preallocated \
         buffer, or suppress if this is setup-time construction\"},\
         {\"file\":\"crates/simd/src/math.rs\",\"line\":7,\"rule\":\"hot-path-alloc\",\
         \"message\":\"`.collect()` allocates in a hot-path module; write into a caller \
         buffer instead\"}]}"
    );
    assert_eq!(
        lint_as("crates/simd/src/math.rs", "hot_path_alloc_ok.rs"),
        EMPTY
    );
}

#[test]
fn lock_order_fixture_pair() {
    assert_eq!(
        lint_as("crates/pool/src/lib.rs", "lock_order_bad.rs"),
        "{\"version\":1,\"count\":1,\"violations\":[\
         {\"file\":\"crates/pool/src/lib.rs\",\"line\":14,\"rule\":\"lock-order\",\
         \"message\":\"fn `swapped` acquires `state` (rank 0) after `current` (rank 1); \
         the declared order is state < current\"}]}"
    );
    assert_eq!(lint_as("crates/pool/src/lib.rs", "lock_order_ok.rs"), EMPTY);
}

#[test]
fn hash_iter_fixture_pair() {
    const MSG_MAP: &str = "std `HashMap` in a result-affecting crate: its per-process \
         hasher seed makes iteration order nondeterministic; use BTreeMap/BTreeSet or \
         `mmsb_graph::FxHashMap`/`FxHashSet`";
    const MSG_SET: &str = "std `HashSet` in a result-affecting crate: its per-process \
         hasher seed makes iteration order nondeterministic; use BTreeMap/BTreeSet or \
         `mmsb_graph::FxHashMap`/`FxHashSet`";
    let entry = |line: usize, msg: &str| {
        format!(
            "{{\"file\":\"crates/core/src/graph.rs\",\"line\":{line},\
             \"rule\":\"hash-iter\",\"message\":\"{msg}\"}}"
        )
    };
    // Two tokens on the import line, two on each declaration line
    // (type ascription + constructor path).
    let expected = format!(
        "{{\"version\":1,\"count\":6,\"violations\":[{},{},{},{},{},{}]}}",
        entry(4, MSG_MAP),
        entry(4, MSG_SET),
        entry(7, MSG_MAP),
        entry(7, MSG_MAP),
        entry(8, MSG_SET),
        entry(8, MSG_SET),
    );
    assert_eq!(
        lint_as("crates/core/src/graph.rs", "hash_iter_bad.rs"),
        expected
    );
    assert_eq!(
        lint_as("crates/core/src/graph.rs", "hash_iter_ok.rs"),
        EMPTY
    );
}

#[test]
fn fs_confinement_fixture_pair() {
    const MSG: &str = "`std::fs` named outside the sanctioned persistence layers; \
         route durable bytes through mmsb_ooc / graph::io / Checkpoint / obs export, \
         or extend FS_ALLOWED in crates/check/src/lint/rules.rs";
    let entry = |line: usize| {
        format!(
            "{{\"file\":\"crates/core/src/eval.rs\",\"line\":{line},\
             \"rule\":\"fs-confinement\",\"message\":\"{MSG}\"}}"
        )
    };
    // One token path on the import line, one per fs call.
    let expected = format!(
        "{{\"version\":1,\"count\":3,\"violations\":[{},{},{}]}}",
        entry(3),
        entry(6),
        entry(7),
    );
    assert_eq!(
        lint_as("crates/core/src/eval.rs", "fs_confinement_bad.rs"),
        expected
    );
    // The conforming twin keeps its tempfile round-trip under
    // `#[cfg(test)]`, which the rule exempts.
    assert_eq!(
        lint_as("crates/core/src/eval.rs", "fs_confinement_ok.rs"),
        EMPTY
    );
}

#[test]
fn layer_boundary_fixture_pair() {
    let entry = |line: usize, message: &str| {
        format!(
            "{{\"file\":\"crates/core/src/sampler/distributed.rs\",\"line\":{line},\
             \"rule\":\"layer-boundary\",\"message\":\"{message}\"}}"
        )
    };
    let clock = "`now_ns`: a clock read in the price of the simulated cluster";
    let stage = |name: &str| format!("`{name}`: the lockstep driver computes a stage of the chain");
    let rollback =
        |name: &str| format!("`{name}`: the lockstep driver keeps a rollback checkpoint");
    let expected = format!(
        "{{\"version\":1,\"count\":8,\"violations\":[{}]}}",
        [
            entry(
                5,
                "`graph_cache:` field: a per-thread graph cache beside the region caches"
            ),
            entry(6, &rollback("Option<crate::checkpoint::Checkpoint>")),
            entry(11, clock),
            entry(12, &stage("refresh_minibatch")),
            entry(13, &stage("update_phi")),
            entry(14, &rollback("Checkpoint::capture")),
            entry(
                15,
                "`read_block_into`: a whole-block read on the cached path"
            ),
            entry(16, clock),
        ]
        .join(",")
    );
    let rel = "crates/core/src/sampler/distributed.rs";
    assert_eq!(lint_as(rel, "layer_boundary_bad.rs"), expected);
    // The conforming twin names the same words only in strings and
    // trailing comments.
    assert_eq!(lint_as(rel, "layer_boundary_ok.rs"), EMPTY);
}

/// An item-level suppression with a justification waives the fixture's
/// violations and counts as used (no unused-suppression backlash).
#[test]
fn suppression_waives_the_fixture_violation() {
    // Replace the fixture's doc comment with a suppression directly
    // above the fn, so the whole item span is covered.
    let src = format!(
        "// xlint: allow(hot-path-panic) — fixture exercise: bounds are a test invariant\n{}",
        fixture("hot_path_panic_bad.rs")
            .lines()
            .skip(2)
            .collect::<Vec<_>>()
            .join("\n")
    );
    let violations = mmsb_check::lint::lint_file("crates/simd/src/math.rs", &src);
    assert!(
        violations.is_empty(),
        "suppressed fixture must be clean: {violations:?}"
    );
}
