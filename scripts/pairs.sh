#!/usr/bin/env bash
# Compare the working tree with a parent revision on one benchmark
# workload, in alternating pairs of runs.
#
#   scripts/pairs.sh <parent-rev> --workload W --seed N [--pairs 10]
#                    [--scratch DIR]
#
# The parent is exported with `git archive` into DIR (default: a fresh
# `mktemp -d`); the parent and the working tree each build the unchanged
# `benchmark/` package into a target directory of their own
# (DIR/target-parent, DIR/target-change). Pair i runs `bash
# benchmark/run.sh --workload W --seed N --trace 0` once in each tree,
# the parent first in even pairs and the change first in odd ones, so a
# drift in the host's speed falls on both sides. Each run lasts the
# benchmark's own window (`run_seconds` of its BENCHMARK.json).
#
# Printed: every pair's values of the four end-to-end metrics, then per
# metric the medians and quartiles of both sides, the pairs the change
# won, and a verdict against the metric's bound in BENCHMARK.json:
#   within      the change's median is no worse than the bound allows;
#   outside     it is worse by more than the bound;
#   unresolved  either side's interquartile range exceeds the bound, so
#               the runs spread too widely to tell — unless every run of
#               the change reads better than every run of the parent.
# A `gain` column says whether the change is better on at least nine
# tenths of the pairs and its median better by more than the parent's
# interquartile range. `final_perplexity` also says whether every run
# printed the same bits. One JSON line with both revisions, the seed,
# the run window, the host core count and these figures is appended to
# BENCH_pairs.json at the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"

usage() {
    sed -n '5,6p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

[ $# -ge 1 ] || usage
parent_arg="$1"
shift
workload="" seed="" pairs=10 scratch=""
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --pairs) pairs="$2"; shift 2 ;;
        --scratch) scratch="$2"; shift 2 ;;
        *) usage ;;
    esac
done
[ -n "$workload" ] && [ -n "$seed" ] || usage

parent_rev=$(git rev-parse --short "$parent_arg^{commit}")
change_rev=$(git rev-parse --short HEAD)
# Dirty only where the benchmark builds from: this script's own append to
# BENCH_pairs.json and the rewritten benchmark/Cargo.lock do not count.
built_from=(crates benchmark/src benchmark/run.sh benchmark/Cargo.toml Cargo.toml Cargo.lock)
[ -z "$(git status --porcelain --untracked-files=no -- "${built_from[@]}")" ] \
    || change_rev="$change_rev-dirty"
scratch="${scratch:-$(mktemp -d)}"
mkdir -p "$scratch"
scratch=$(cd "$scratch" && pwd)

# Building the benchmark rewrites its (stale) lock file; put the working
# tree's copy back however the script ends.
lock="$root/benchmark/Cargo.lock"
cp "$lock" "$scratch/Cargo.lock.saved"
trap 'cp "$scratch/Cargo.lock.saved" "$lock"' EXIT

rm -rf "$scratch/parent"
mkdir -p "$scratch/parent"
git archive "$parent_rev" | tar -x -C "$scratch/parent"

# One run: `side tree target` -> appends `pair side metric value` lines.
results="$scratch/pairs-$workload-$seed.tsv"
: > "$results"
run() {
    local pair="$1" side="$2" tree="$3" target="$4" out status
    status=0
    out=$(cd "$tree" && CARGO_TARGET_DIR="$target" bash benchmark/run.sh \
        --workload "$workload" --seed "$seed" --trace 0 \
        2>"$scratch/$side-$pair.err") || status=$?
    printf '%s\t%s\texit\t%s\n' "$pair" "$side" "$status" >> "$results"
    awk -v p="$pair" -v s="$side" -v w="$workload" \
        '$1 == w && NF == 4 { printf "%s\t%s\t%s\t%s\n", p, s, $2, $3 }' \
        <<< "$out" >> "$results"
    grep -q '"correct":true' <<< "$out" \
        && printf '%s\t%s\tcorrect\t1\n' "$pair" "$side" >> "$results" \
        || printf '%s\t%s\tcorrect\t0\n' "$pair" "$side" >> "$results"
}

echo "# building the parent ($parent_rev) and the change ($change_rev) into $scratch" >&2
CARGO_TARGET_DIR="$scratch/target-parent" cargo build --release --offline --quiet \
    --manifest-path "$scratch/parent/benchmark/Cargo.toml" 1>&2
CARGO_TARGET_DIR="$scratch/target-change" cargo build --release --offline --quiet \
    --manifest-path "$root/benchmark/Cargo.toml" 1>&2

for ((i = 0; i < pairs; i++)); do
    echo "# pair $((i + 1))/$pairs" >&2
    if ((i % 2 == 0)); then
        run "$i" parent "$scratch/parent" "$scratch/target-parent"
        run "$i" change "$root" "$scratch/target-change"
    else
        run "$i" change "$root" "$scratch/target-change"
        run "$i" parent "$scratch/parent" "$scratch/target-parent"
    fi
done

python3 - "$results" "$root/BENCHMARK.json" "$root/BENCH_pairs.json" \
    "$workload" "$seed" "$pairs" "$parent_rev" "$change_rev" "$(nproc)" <<'PY'
import json, statistics, sys, time

results, spec_path, out_path, workload, seed, pairs, parent_rev, change_rev, cores = sys.argv[1:]
spec = json.load(open(spec_path))
seconds = spec["run_seconds"]
runs = {}  # (side, metric) -> {pair: value}
for line in open(results):
    pair, side, metric, value = line.rstrip("\n").split("\t")
    runs.setdefault((side, metric), {})[int(pair)] = float(value)

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

ok = all(v == 0 for side in ("parent", "change") for v in runs.get((side, "exit"), {}).values())
correct = all(v == 1 for side in ("parent", "change") for v in runs.get((side, "correct"), {}).values())
print(f"{workload} seed {seed}: parent {parent_rev} vs change {change_rev}, "
      f"{pairs} pairs x {seconds} s, {cores} host cores")
print(f"all runs exited 0: {ok}; every run correct: {correct}")
line = {
    "workload": workload, "seed": int(seed), "pairs": int(pairs), "seconds": float(seconds),
    "parent_rev": parent_rev, "change_rev": change_rev, "host_cores": int(cores),
    "all_correct": correct and ok, "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    "metrics": {},
}
for m in spec["end_to_end"]:
    name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
    p, c = runs.get(("parent", name), {}), runs.get(("change", name), {})
    both = sorted(set(p) & set(c))
    if not both:
        continue
    pv, cv = [p[i] for i in both], [c[i] for i in both]
    print(f"\n{name} ({m['unit']}, {m['better']} is better, bound {bound:.0%})")
    print("  pair  parent            change            change/parent")
    for i, a, b in zip(both, pv, cv):
        ratio = b / a if a else float("nan")
        print(f"  {i + 1:4d}  {a:<16.6g}  {b:<16.6g}  {ratio:.4f}")
    pq, cq = quartiles(pv), quartiles(cv)
    wins = sum((b < a) if lower else (b > a) for a, b in zip(pv, cv))
    worse = ((cq[1] - pq[1]) if lower else (pq[1] - cq[1])) / pq[1] if pq[1] else 0.0
    spread = max((pq[2] - pq[0]) / pq[1] if pq[1] else 0.0, (cq[2] - cq[0]) / cq[1] if cq[1] else 0.0)
    apart = max(cv) < min(pv) if lower else min(cv) > max(pv)
    if spread > bound and not apart:
        verdict = "unresolved"
    else:
        verdict = "outside" if worse > bound else "within"
    gain = wins * 10 >= 9 * len(both) and -worse * pq[1] > pq[2] - pq[0]
    print(f"  median  parent {pq[1]:.6g}  change {cq[1]:.6g}  ({-worse:+.2%} better)")
    print(f"  quartiles  parent [{pq[0]:.6g}, {pq[2]:.6g}]  change [{cq[0]:.6g}, {cq[2]:.6g}]")
    print(f"  change won {wins}/{len(both)} pairs; verdict: {verdict}; gain: {'yes' if gain else 'no'}")
    entry = {
        "parent": pv, "change": cv, "parent_median": pq[1], "change_median": cq[1],
        "parent_q1": pq[0], "parent_q3": pq[2], "change_q1": cq[0], "change_q3": cq[2],
        "wins": wins, "bound": bound, "verdict": verdict, "gain": gain,
    }
    if name == "final_perplexity":
        entry["bit_equal"] = len(set(pv + cv)) == 1
        print(f"  every run bit-equal: {entry['bit_equal']}")
    line["metrics"][name] = entry
with open(out_path, "a") as f:
    f.write(json.dumps(line, separators=(",", ":")) + "\n")
print(f"\nappended to {out_path}")
PY
