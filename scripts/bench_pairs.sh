#!/usr/bin/env bash
# Paired fleetbench comparison of a parent revision against the working
# tree.
#
#   scripts/bench_pairs.sh <parent-rev> <workload> <pairs> <seconds> [--trace] [--seed <first>]
#
# Builds fleetbench twice, each into its own target directory under a
# temporary directory: once from a `git archive` copy of <parent-rev>
# and once from the working tree (uncommitted edits included). Then it
# runs <pairs> pairs of <seconds>-second runs of <workload>. Pair i runs
# both sides on seed <first> + i (default first seed: 1), and the side
# that runs first alternates: the parent in even pairs, the change in
# odd ones.
#
# It prints one line per run (seed, side, `correct`, `failed`), then
# for every metric of the result JSON the parent's and the change's
# medians and quartiles (q1–q3), the number of pairs in which the change
# was better by the metric's direction in BENCHMARK.json, and the number
# in which both sides read exactly the same value (same seed, so a
# detection metric reads equal in every pair when the change keeps
# output bits). With --trace every run is a traced run (`--trace 1`,
# the per-layer metrics), and the per-run lines add
# `trace.reconcile_pct`. Below the per-run lines, one line per side
# counts its runs that printed `correct: false` and, with --trace,
# those whose `trace.reconcile_pct` is above fleetbench's 10 % limit
# (`RECONCILE_LIMIT_PCT` in fleetbench/src/traced.rs), so a traced
# check's flake rate can be reported beside a claim.
#
# Nothing under fleetbench/ is written. The temporary directory is made
# under $TMPDIR (default /tmp) and removed on exit.
set -euo pipefail

usage() {
    echo "usage: $0 <parent-rev> <workload> <pairs> <seconds> [--trace] [--seed <first>]" >&2
    exit 2
}
[ $# -ge 4 ] || usage
parent_rev=$1 workload=$2 pairs=$3 seconds=$4
shift 4
trace=0
first_seed=1
while [ $# -gt 0 ]; do
    case $1 in
        --trace) trace=1 ;;
        --seed) [ $# -ge 2 ] || usage; first_seed=$2; shift ;;
        *) usage ;;
    esac
    shift
done

repo=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT

echo "== building the parent ($parent_rev) and the working tree ==" >&2
mkdir "$work/parent"
git -C "$repo" archive "$parent_rev" | tar -x -C "$work/parent"
build() { # <source root> <target dir>
    cargo build --release --offline --quiet \
        --manifest-path "$1/fleetbench/Cargo.toml" --target-dir "$2" >&2
}
build "$work/parent" "$work/parent-target"
build "$repo" "$work/change-target"
bin_parent="$work/parent-target/release/roboads-fleetbench"
bin_change="$work/change-target/release/roboads-fleetbench"

run() { # <side> <binary> <seed>
    local line
    line=$("$2" --workload "$workload" --seed "$3" --seconds "$seconds" --trace "$trace" \
        2>/dev/null | tail -n 1) || true
    printf '%s\t%s\t%s\n' "$3" "$1" "$line" >> "$work/results.tsv"
}

for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    echo "== pair $((i + 1))/$pairs, seed $seed ==" >&2
    if ((i % 2 == 0)); then
        run parent "$bin_parent" "$seed"
        run change "$bin_change" "$seed"
    else
        run change "$bin_change" "$seed"
        run parent "$bin_parent" "$seed"
    fi
done

python3 - "$work/results.tsv" "$repo/BENCHMARK.json" "$workload" "$trace" <<'EOF'
import json
import sys

results, manifest, workload, trace = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4] == "1"
spec = json.load(open(manifest))
better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

runs = {}  # seed -> side -> parsed result (None if the run printed no JSON)
for row in open(results):
    seed, side, line = row.rstrip("\n").split("\t", 2)
    try:
        runs.setdefault(int(seed), {})[side] = json.loads(line)
    except ValueError:
        runs.setdefault(int(seed), {})[side] = None


def quantile(values, q):
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


print(f"workload {workload}, {len(runs)} pairs{' (traced)' if trace else ''}")
print("seed side   correct failed" + ("  reconcile_pct" if trace else ""))
for seed in sorted(runs):
    for side in ("parent", "change"):
        r = runs[seed].get(side)
        if r is None:
            print(f"{seed:>4} {side:<6} no result")
            continue
        cols = f"{seed:>4} {side:<6} {str(r['correct']):<7} {r['failed']:>6}"
        if trace:
            cols += f"  {r['metrics']['trace.reconcile_pct']['value']:13.2f}"
        print(cols)

RECONCILE_LIMIT_PCT = 10.0
for side in ("parent", "change"):
    done = [runs[seed][side] for seed in sorted(runs) if runs[seed].get(side)]
    line = f"{side}: {len(done)} runs, {sum(not r['correct'] for r in done)} correct: false"
    if trace:
        over = sum(r["metrics"]["trace.reconcile_pct"]["value"] > RECONCILE_LIMIT_PCT for r in done)
        line += f", {over} with trace.reconcile_pct > {RECONCILE_LIMIT_PCT:g} %"
    print(line)

complete = [p for p in sorted(runs) if all(runs[p].get(s) for s in ("parent", "change"))]
names = []
for p in complete:
    for side in ("parent", "change"):
        for name in runs[p][side]["metrics"]:
            if name not in names:
                names.append(name)
print()
print(f"{'metric':<32} {'parent median (q1-q3)':>34} {'change median (q1-q3)':>34} {'wins':>6} {'equal':>6}")
for name in names:
    both = [p for p in complete if all(name in runs[p][s]["metrics"] for s in ("parent", "change"))]
    if not both:
        continue
    value = {s: [runs[p][s]["metrics"][name]["value"] for p in both] for s in ("parent", "change")}
    cells = []
    for s in ("parent", "change"):
        v = value[s]
        cells.append(f"{quantile(v, 0.5):.6g} ({quantile(v, 0.25):.6g}-{quantile(v, 0.75):.6g})")
    direction = better.get(name)
    if direction is None:
        wins = "-"
    else:
        sign = -1 if direction == "lower" else 1
        count = sum(sign * (c - p) > 0 for p, c in zip(value["parent"], value["change"]))
        wins = f"{count}/{len(both)}"
    equal = sum(p == c for p, c in zip(value["parent"], value["change"]))
    print(f"{name:<32} {cells[0]:>34} {cells[1]:>34} {wins:>6} {equal:>3}/{len(both)}")
EOF
