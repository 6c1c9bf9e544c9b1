#!/usr/bin/env bash
# Tier-1 gate: the workspace must build, lint clean, and test fully
# offline — no registry dependencies, no network. Each step runs once:
# xlint -> doc check (five reference checks, then the price's manifest)
# -> rustfmt check -> build -> clippy -> the whole test suite -> the
# three --quick gate binaries -> sanitize.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

# Workspace invariant lint, first and fail-fast: the item-level static
# analyzer (DESIGN.md §14 — SAFETY comments, unsafe/sync/time/arch/
# net/fs confinement, hot-path panic/alloc freedom, lock ordering,
# hash-iter determinism, the simulated cluster's layer boundary,
# suppression hygiene). The JSON document is
# round-tripped through the schema validator in the same pipe, so under
# pipefail a lint violation *or* a schema drift/truncation fails here,
# before the build spends any time. On failure the human-readable
# report is printed.
cargo run -q --offline -p mmsb-check --bin xlint -- --json \
    | cargo run -q --offline -p mmsb-check --bin xlint -- --validate-schema \
    || { cargo run -q --offline -p mmsb-check --bin xlint; exit 1; }

# Doc-reference check, before the build: a doc that points at deleted
# code fails here. The verify skill (.claude/skills/verify/SKILL.md)
# tells a builder what to run, so every check reads it too.
# (1) Every back-ticked `crates/…/*.rs` or `tests/*.rs` path (an
# optional `:line` suffix stripped) in the top-level docs must name a
# file that exists. (2) Every `--bin NAME`,
# `target/release/NAME` and `--bench NAME` in the docs that tell people
# what to run must be a target cargo builds: `crates/*/src/bin/NAME.rs`
# (every `[[bin]]` of crates/bench, crates/check and the `mmsb` CLI) or
# `crates/*/benches/NAME.rs`.
stale=0
skill=.claude/skills/verify/SKILL.md
for doc in README.md DESIGN.md PAPER.md EXPERIMENTS.md "$skill"; do
    while read -r path; do
        test -e "$path" || { echo "$doc names a file that does not exist: $path"; stale=1; }
    done < <(grep -oE '`(crates|tests)/[A-Za-z0-9_./-]+\.rs(:[0-9]+)?`' "$doc" \
        | tr -d '`' | sed -E 's/:[0-9]+$//' | sort -u)
done
for doc in README.md DESIGN.md EXPERIMENTS.md "$skill"; do
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
# (3) Every back-ticked path rooted at a workspace crate (`graph::io::x`,
# `mmsb_graph::io::x`, `mmsb::…`; std's `core::arch` excepted) must end
# in a name some `fn`/`struct`/`enum`/`trait`/`const`/`mod`/`type` under
# crates/ defines.
crate_roots="mmsb|(mmsb_)?($(ls crates | paste -sd '|'))"
for doc in README.md DESIGN.md EXPERIMENTS.md "$skill"; do
    while read -r path; do
        git grep -qwE "(fn|struct|enum|trait|const|mod|type) ${path##*::}" -- crates \
            || { echo "$doc names an item that does not exist: $path"; stale=1; }
    done < <(grep -oE '`[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)+' "$doc" \
        | tr -d '`' | grep -E "^($crate_roots)::" | grep -v '^core::arch' | sort -u)
done
# (4) Every back-ticked `Type::item` whose `Type` is a struct, enum,
# trait or type alias defined under crates/, and whose `item` reads as a
# function (lower case) or a constant (upper case) rather than a
# variant, must name a `fn`/`const` some file under crates/ defines —
# or, for a lower-case item, a `pub item:` field (`Type::field` is how
# the docs name a public field, e.g. `BuildOptions::run_entries`).
for doc in README.md DESIGN.md EXPERIMENTS.md "$skill"; do
    while read -r path; do
        git grep -qwE "(struct|enum|trait|type) ${path%%::*}" -- crates || continue
        item=${path#*::}
        git grep -qwE "(fn|const) $item" -- crates \
            || { [[ $item =~ ^[a-z_] ]] && git grep -qE "pub $item:" -- crates; } \
            || { echo "$doc names an item that does not exist: $path"; stale=1; }
    done < <(grep -oE '`[A-Z][A-Za-z0-9_]*::[A-Za-z_][A-Za-z0-9_]*' "$doc" | tr -d '`' \
        | grep -E '::([a-z_][a-z0-9_]*|[A-Z][A-Z0-9_]*)$' | sort -u)
done
# (5) Every back-ticked CamelCase identifier (`FooBar`: two or more
# capitalised humps, the whole back-ticked span) in README.md,
# DESIGN.md, EXPERIMENTS.md and the verify skill must occur as a word in
# some crates/**/*.rs — a type the docs name is a type the code still
# has.
for doc in README.md DESIGN.md EXPERIMENTS.md "$skill"; do
    while read -r name; do
        git grep -qw "$name" -- 'crates/*.rs' \
            || { echo "$doc names an identifier no crate has: $name"; stale=1; }
    done < <(grep -oE '`[A-Z][a-z0-9]+[A-Z][A-Za-z0-9]*`' "$doc" | tr -d '`' | sort -u)
done
# (6) The price of the simulated cluster (mmsb-netsim) depends on
# neither the sampler, the pool nor the graph file, so it cannot run a
# stage of the chain, fan out or read the graph. (What the Rust sources
# may name is xlint's `layer-boundary` rule; xlint reads no manifests.)
while read -r hit; do
    echo "crates/netsim/Cargo.toml depends on the chain: $hit"; stale=1
done < <(grep -nE '^[[:space:]]*mmsb-(core|pool|ooc)\b' crates/netsim/Cargo.toml)
[ "$stale" -eq 0 ]

# The tree is rustfmt-clean, so a change formats the lines it writes
# without reformatting lines it did not.
cargo fmt --all --check

cargo build --release --offline
cargo clippy --workspace --all-targets --offline -- -D warnings

# The whole workspace, once. Which suite pins which contract:
#   concurrency   mmsb-check: tests/model_*.rs (pool, snapshot cell,
#                 admission/drain protocol — slot conservation, admit
#                 racing drain, monotone lifecycle — across
#                 bounded-exhaustive interleavings + seeded-bug shims),
#                 xlint self-tests
#                 (lexer_prop, xlint_gate, xlint_fixtures)
#   pipelining    mmsb-netsim: pipeline::tests (price vs its oracle);
#                 mmsb-core: pipeline_determinism (Single vs Double
#                 bitwise), zero_alloc (pool step with and without
#                 the DKV key record, pricing, warmed ooc cache reads)
#   failures      mmsb-netsim: cluster::tests (the retry loop);
#                 mmsb-core: fault_determinism (the clock pinned with
#                 and without faults), checkpoint_resume
#   SIMD          mmsb-simd (lane parity, log/polar ULP bounds);
#                 mmsb-core: simd_determinism; mmsb: simd_smoke
#   obs           mmsb-obs (registry, clock, rings, exporters, trace
#                 round-trip); mmsb: obs_cli (a priced DKV access is one
#                 histogram sample a batch, no span)
#   CLI           mmsb: driver_cli, serve_cli (a flag a command does not
#                 read exits 1 naming it)
#   serving       mmsb-serve: e2e, reload_stress, zero_alloc_serve,
#                 reload_footprint (a reload holds at most one more
#                 snapshot + the file), topk_property + snapshot::tests
#                 (snapshot build vs its oracles), membership_cap (the
#                 16-community cap over the socket), reload_corrupt,
#                 http_prop, write_deadline (one budget per response)
#   overload      mmsb-serve: chaos, drain_shed (at 1 and 2 workers,
#                 connection threads+1 gets the sweep's fast-path 503 and
#                 no more than threads are admitted; graceful drain with
#                 zero truncation/abort), drain_forced (a process of its
#                 own: it waits on the global counter)
#   out-of-core   mmsb-ooc (codec/format properties, every-flipped-byte
#                 sweep, a flipped frame, the version-1 refusal, lists
#                 that span frames and frame seams that split a 3-byte
#                 varint, decoded under constant eviction);
#                 mmsb-core: backend_determinism, ooc_read_count
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
