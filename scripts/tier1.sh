#!/usr/bin/env bash
# Tier-1 gate: the workspace must build, lint clean, and test fully
# offline — no registry dependencies, no network.
set -euo pipefail
cd "$(dirname "$0")/.."

# Workspace invariant lint, first and fail-fast: the item-level static
# analyzer (DESIGN.md §14 — SAFETY comments, unsafe/sync/time/arch/
# net/fs confinement, hot-path panic/alloc freedom, lock ordering,
# hash-iter
# determinism, suppression hygiene). The JSON document is round-tripped
# through the schema validator in the same pipe, so under pipefail a
# lint violation *or* a schema drift/truncation fails here, before the
# build spends any time. On failure the human-readable report is
# printed.
cargo run -q --offline -p mmsb-check --bin xlint -- --json \
    | cargo run -q --offline -p mmsb-check --bin xlint -- --validate-schema \
    || { cargo run -q --offline -p mmsb-check --bin xlint; exit 1; }

# Doc-reference check: every back-ticked `crates/…/*.rs` or
# `tests/*.rs` path (an optional `:line` suffix stripped) in the
# top-level docs must name a file that exists — a doc that points at
# deleted code fails here, before the build.
stale=0
for doc in README.md DESIGN.md PAPER.md; do
    while read -r path; do
        test -e "$path" || { echo "$doc names a file that does not exist: $path"; stale=1; }
    done < <(grep -oE '`(crates|tests)/[A-Za-z0-9_./-]+\.rs(:[0-9]+)?`' "$doc" \
        | tr -d '`' | sed -E 's/:[0-9]+$//' | sort -u)
done
[ "$stale" -eq 0 ]

cargo build --release --offline
cargo clippy --workspace --all-targets --offline -- -D warnings
cargo test -q --offline

# Concurrency model checker + lint self-tests: the pool/worker/prefetch
# protocols stay clean across bounded-exhaustive interleavings, and the
# checker still catches its seeded-bug shims.
cargo test -q --offline -p mmsb-check

# Pipelining contracts, called out explicitly: Single vs Double bitwise
# identity and the zero-allocation steady state of the prefetch path.
# (Both also run as part of the full suite above; naming them here makes
# a regression in the prefetch pipeline fail loudly and first.)
cargo test -q --offline -p mmsb-core --test pipeline_determinism
cargo test -q --offline -p mmsb-core --test zero_alloc

# Failure-layer contracts: recoverable faults never change the chain,
# kill-and-resume from an on-disk checkpoint is bitwise-identical, a
# permanently lost worker degrades to R-1 survivors, and a peer dying
# mid-collective surfaces as `Disconnected` on every survivor of the
# message layer instead of a hang.
cargo test -q --offline -p mmsb-core --test fault_determinism
cargo test -q --offline -p mmsb-core --test checkpoint_resume
cargo test -q --offline -p mmsb-comm --test partial_failure

# SIMD kernel contracts: the lane-abstraction unit + property suites
# (scalar-vs-SIMD parity per lane width, exp/log/polar ULP bounds), the
# per-backend bitwise determinism of the full sampler at any thread
# count, and the scalar-vs-SIMD statistical smoke train.
cargo test -q --offline -p mmsb-simd
cargo test -q --offline -p mmsb-core --test simd_determinism
cargo test -q --offline -p mmsb --test simd_smoke

# Observability contracts: the obs unit suite (registry, clock, span
# rings, exporters — including the chrome-trace emit → parse → validate
# round-trip), the CLI round-trip (simulate --trace-out/--metrics-out
# produces a parser-validated trace and a complete metrics snapshot),
# and the overhead gate (a fully instrumented phi step must stay within
# the noise bound of the obs-off step; --quick uses the generous CI
# bound).
cargo test -q --offline -p mmsb-obs
cargo test -q --offline -p mmsb --test obs_cli
repo="$PWD"
(cd "$(mktemp -d)" && "$repo/target/release/bench_phi" --quick)

# Complementary real-execution race check; skips cleanly when the
# nightly TSan prerequisites are absent.
bash scripts/sanitize.sh

# Serving-layer contracts: the snapshot cell's publish/refresh protocol
# model-checked across interleavings, the end-to-end HTTP suite (train →
# checkpoint → ephemeral-port server → every endpoint → reload → obs
# counters), reload-under-load (no query dropped across 50 republishes),
# the zero-allocation steady state of the query path, and the throughput
# smoke run (bench_serve --quick gates at the generous CI bound; the
# committed BENCH_serve.json carries the full-run >= 100k q/s figure).
cargo test -q --offline -p mmsb-serve
cargo test -q --offline -p mmsb-check --test model_snapshot_cell
# The snapshot build, named for locality (all inside the suite above):
# the served orders against a full sort (topk_property), the
# packed-key + radix build against its comparator oracle bit for bit at
# forced range counts, the key order itself, and the fan-out from
# inside a pool chunk (snapshot::tests); a reload over the socket
# serving byte for byte what a main-thread build serves (reload_stress).
cargo test -q --offline -p mmsb-serve --test topk_property
cargo test -q --offline -p mmsb-serve --lib snapshot::tests
cargo test -q --offline -p mmsb-serve --test reload_stress
(cd "$(mktemp -d)" && "$repo/target/release/bench_serve" --quick)

# Overload-robustness contracts (DESIGN.md §13): the admission/drain
# protocol model-checked across interleavings (slot conservation,
# drain-vs-admit races, monotone lifecycle, plus seeded leaked-permit
# and double-decrement negative controls the checker must catch), the
# adversarial chaos suite (slow-loris, half-close, never-read, garbage,
# oversized heads, idle — none may pin a worker), shed/drain against a
# live server (the expired-budget force-close in a process of its own,
# drain_forced: it waits on the process-global request counter),
# every-flipped-byte reload corruption, and the
# generator-as-oracle property suite for the request parser. The quick
# bench_serve run above already gates the 4x-overload shed scenario and
# the zero-client-visible-error drain.
cargo test -q --offline -p mmsb-check --test model_admission
cargo test -q --offline -p mmsb-serve --test chaos
cargo test -q --offline -p mmsb-serve --test drain_shed
cargo test -q --offline -p mmsb-serve --test drain_forced
cargo test -q --offline -p mmsb-serve --test reload_corrupt
cargo test -q --offline -p mmsb-serve --test http_prop

# Out-of-core graph engine contracts (DESIGN.md §15): the codec + file
# format property suites (300 adversarial seeds through the varint
# codec, builder round-trips with forced external-sort spills, the
# every-flipped-byte corruption sweep proving each byte is either
# CRC/invariant-detected or provably harmless), cross-backend bitwise
# determinism (resident vs out-of-core chains identical across
# eviction-heavy cache sizes, thread counts, and block sizes, on
# near-uniform and power-law degrees), the block-read budget of one
# training step (each mini-batch vertex's and each anchor's list opened
# once: anchor-side edge tests, not one foreign list per probe), the
# zero-allocation warmed cache read loop (inside zero_alloc above,
# named here for locality), and the quick bench gate (streamed build →
# bytes/edge <= 4.8 → cold/warm reads → end-to-end ooc training; the
# committed BENCH_graph.json carries the full-run 100M-edge figures).
cargo test -q --offline -p mmsb-ooc
cargo test -q --offline -p mmsb-core --test backend_determinism
cargo test -q --offline -p mmsb-core --test ooc_read_count
(cd "$(mktemp -d)" && "$repo/target/release/bench_graph" --quick)
