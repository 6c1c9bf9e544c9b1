#!/usr/bin/env bash
# Tier-1 gate: the workspace must build, lint clean, and test fully
# offline — no registry dependencies, no network. Each step runs once:
# xlint -> doc check -> build -> clippy -> the whole test suite -> the
# three --quick gate binaries -> sanitize.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

# Workspace invariant lint, first and fail-fast: the item-level static
# analyzer (DESIGN.md §14 — SAFETY comments, unsafe/sync/time/arch/
# net/fs confinement, hot-path panic/alloc freedom, lock ordering,
# hash-iter determinism, suppression hygiene). The JSON document is
# round-tripped through the schema validator in the same pipe, so under
# pipefail a lint violation *or* a schema drift/truncation fails here,
# before the build spends any time. On failure the human-readable
# report is printed.
cargo run -q --offline -p mmsb-check --bin xlint -- --json \
    | cargo run -q --offline -p mmsb-check --bin xlint -- --validate-schema \
    || { cargo run -q --offline -p mmsb-check --bin xlint; exit 1; }

# Doc-reference check, before the build: a doc that points at deleted
# code fails here. (1) Every back-ticked `crates/…/*.rs` or
# `tests/*.rs` path (an optional `:line` suffix stripped) in the
# top-level docs must name a file that exists. (2) Every `--bin NAME`,
# `target/release/NAME` and `--bench NAME` in the docs that tell people
# what to run must be a target cargo builds: `crates/*/src/bin/NAME.rs`
# (every `[[bin]]` of crates/bench, crates/check and the `mmsb` CLI) or
# `crates/*/benches/NAME.rs`.
stale=0
for doc in README.md DESIGN.md PAPER.md EXPERIMENTS.md; do
    while read -r path; do
        test -e "$path" || { echo "$doc names a file that does not exist: $path"; stale=1; }
    done < <(grep -oE '`(crates|tests)/[A-Za-z0-9_./-]+\.rs(:[0-9]+)?`' "$doc" \
        | tr -d '`' | sed -E 's/:[0-9]+$//' | sort -u)
done
for doc in README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md; do
    while read -r kind name; do
        case "$kind" in
            --bench) dir=benches ;;
            *) dir=src/bin ;;
        esac
        compgen -G "crates/*/$dir/$name.rs" >/dev/null \
            || { echo "$doc names a target that does not exist: $kind $name"; stale=1; }
    done < <(grep -oE -e '--(bin|bench) [A-Za-z0-9_]+|target/release/[A-Za-z0-9_]+' "$doc" \
        | sed -E 's|^target/release/|--bin |' | sort -u)
done
[ "$stale" -eq 0 ]

cargo build --release --offline
cargo clippy --workspace --all-targets --offline -- -D warnings

# The whole workspace, once. Which suite pins which contract:
#   concurrency   mmsb-check: tests/model_*.rs (pool/worker/prefetch,
#                 snapshot cell, admission/drain protocols across
#                 bounded-exhaustive interleavings + seeded-bug shims),
#                 xlint self-tests (lexer_prop, xlint_gate, xlint_fixtures)
#   pipelining    mmsb-core: pipeline_determinism (Single vs Double
#                 bitwise), zero_alloc (steady-state prefetch, lockstep
#                 step, warmed ooc cache reads)
#   failures      mmsb-core: fault_determinism, checkpoint_resume;
#                 mmsb-comm: partial_failure (dead peer -> Disconnected)
#   SIMD          mmsb-simd (lane parity, exp/log/polar ULP bounds);
#                 mmsb-core: simd_determinism; mmsb: simd_smoke
#   obs           mmsb-obs (registry, clock, rings, exporters, trace
#                 round-trip); mmsb: obs_cli
#   serving       mmsb-serve: e2e, reload_stress, zero_alloc_serve,
#                 topk_property + snapshot::tests (snapshot build vs its
#                 oracles), reload_corrupt, http_prop
#   overload      mmsb-serve: chaos, drain_shed (fast-path 503, graceful
#                 drain with zero truncation/abort), drain_forced (a
#                 process of its own: it waits on the global counter)
#   out-of-core   mmsb-ooc (codec/format properties, every-flipped-byte
#                 sweep); mmsb-core: backend_determinism, ooc_read_count
#                 (DESIGN.md §15)
cargo test -q --offline

# The gates only a run can check, each at its generous --quick bound
# (the full-run bounds are in the binaries): obs overhead of a fully
# instrumented step (bench_phi; <= 5% full), membership q/s floor and
# 4x-overload shedding that never corrupts and keeps accepted p99
# bounded (bench_serve; >= 100k q/s full), streamed out-of-core build
# at <= 4.8 bytes/edge then end-to-end ooc training (bench_graph; the
# committed BENCH_graph.json carries the full-run 100M-edge figures).
repo="$PWD"
for gate in bench_phi bench_serve bench_graph; do
    (cd "$(mktemp -d)" && "$repo/target/release/$gate" --quick)
done

# Complementary real-execution race check; skips cleanly when the
# nightly TSan prerequisites are absent.
bash scripts/sanitize.sh
