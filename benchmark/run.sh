#!/usr/bin/env bash
# Build the benchmark (offline, release) and run it. Every argument is passed
# through; see README.md. Run from anywhere: paths are resolved from this file.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# A relative CARGO_TARGET_DIR is relative to the caller's directory.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

# cargo's progress goes to stderr; stdout carries only the benchmark's lines.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" 1>&2

# Pin glibc's mmap threshold at its initial 128 KiB. Left dynamic, it grows
# with every freed buffer, big buffers then come from the heap and stay
# resident after they are freed, and peak RSS follows the allocator's history
# (serve_reload wandered between 328 and 372 MiB) instead of the program's
# live memory (226 MiB every time).
export MALLOC_MMAP_THRESHOLD_=131072

cd "$root"
exec "$target/release/mmsb-benchmark" "$@"
