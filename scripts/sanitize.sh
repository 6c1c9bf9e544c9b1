#!/usr/bin/env bash
# Best-effort ThreadSanitizer pass over the concurrency-heavy crates.
#
# TSan needs a nightly toolchain with the rust-src component (to rebuild
# std with -Zsanitizer=thread). This box usually has only stable, so the
# script probes first and SKIPS CLEANLY — exit 0 with a message — when
# the prerequisites are missing. The in-tree model checker
# (`cargo test -p mmsb-check`, part of tier-1) is the primary gate;
# TSan is a complementary real-execution cross-check when available.
set -euo pipefail
cd "$(dirname "$0")/.."

host="$(rustc -vV | sed -n 's/^host: //p')"

if ! rustup toolchain list 2>/dev/null | grep -q '^nightly'; then
    echo "sanitize: no nightly toolchain installed -- skipping TSan (model checker remains the gate)"
    exit 0
fi
if ! rustup component list --toolchain nightly 2>/dev/null \
        | grep -q '^rust-src.*(installed)'; then
    echo "sanitize: nightly lacks the rust-src component -- skipping TSan"
    exit 0
fi

echo "sanitize: running ThreadSanitizer on pool/dkv/core tests (host: ${host})"
export RUSTFLAGS="-Zsanitizer=thread"
# TSan misreports intentionally-racy perf counters unless the whole std
# is instrumented, hence -Zbuild-std.
cargo +nightly test -q --offline \
    -Zbuild-std --target "${host}" \
    -p mmsb-pool -p mmsb-dkv \
    -p mmsb-core --test pipeline_determinism
echo "sanitize: TSan pass clean"
