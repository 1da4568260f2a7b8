#!/usr/bin/env bash
# Interleaved A/B runs of perfbench: a parent revision against the working
# tree (committed or not).
#
#   scripts/perfbench_ab.sh <parent-rev> <workload> <pairs> <seconds> [seed]
#
# Both sides are exported with `git archive` into a temporary directory and
# built there (`cargo build --release --offline`, perfbench's own
# workspace), so the two binaries differ only by the program's source. The
# pairs then run alternately, with the side that goes first alternating
# from pair to pair, untraced (`--trace 0`). Each run prints its six
# end-to-end metrics, its check result and its failed-operation count; the
# summary gives each side's median and quartiles per metric, the
# change/parent ratio of the medians, and how many pairs the change won
# (higher is better for ops_per_s, lower for the rest). Runs that report
# `correct: false` or failed operations are flagged. The temporary
# directory (under `TMPDIR`) is removed on exit. Needs `python3` to read
# perfbench's JSON result lines.
set -euo pipefail

if [[ $# -lt 4 || $# -gt 5 ]]; then
    echo "usage: $0 <parent-rev> <workload> <pairs> <seconds> [seed]" >&2
    exit 2
fi
parent_rev=$1
workload=$2
pairs=$3
seconds=$4
seed=${5:-1}

repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/perfbench_ab.XXXXXX")
trap 'rm -rf "$work"' EXIT

parent=$(git -C "$repo" rev-parse --verify "$parent_rev^{commit}")
# The working tree as a tree object, through a scratch index: the
# repository's own index and refs stay as they are.
change=$(
    export GIT_INDEX_FILE="$work/index"
    git -C "$repo" read-tree HEAD
    git -C "$repo" add -A
    git -C "$repo" write-tree
)

for side in parent change; do
    rev=${!side}
    mkdir -p "$work/$side"
    git -C "$repo" archive "$rev" | tar -x -C "$work/$side"
    echo "== building $side ($rev)" >&2
    cargo build --release --offline --quiet \
        --manifest-path "$work/$side/perfbench/Cargo.toml"
done

run() {
    local side=$1 pair=$2
    local out
    out=$(cd "$work/$side" &&
        perfbench/target/release/perfbench --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0 2>/dev/null || true)
    printf '%s\t%s\t%s\n' "$side" "$pair" "$(tail -n 1 <<<"$out")" >>"$work/results.tsv"
    python3 - "$side" "$pair" "$(tail -n 1 <<<"$out")" <<'EOF'
import json, sys
side, pair, line = sys.argv[1:4]
try:
    r = json.loads(line)
except ValueError:
    print(f"pair {pair} {side}: no result line")
    sys.exit()
m = r["metrics"]
names = ["ops_per_s", "op_p50_ms", "op_p95_ms", "cpu_ms_per_op", "setup_s", "peak_rss_mb"]
vals = " ".join(f"{n}={m[n]['value']:.4g}" for n in names)
flag = "" if r["correct"] and r["failed"] == 0 else f"  CHECK FAILED (correct={r['correct']}, failed={r['failed']})"
print(f"pair {pair} {side:6} {vals}{flag}")
EOF
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        run parent "$i"
        run change "$i"
    else
        run change "$i"
        run parent "$i"
    fi
done

python3 - "$work/results.tsv" "$workload" "$seed" <<'EOF'
import json, statistics, sys
path, workload, seed = sys.argv[1:4]
names = ["ops_per_s", "op_p50_ms", "op_p95_ms", "cpu_ms_per_op", "setup_s", "peak_rss_mb"]
runs = {"parent": {}, "change": {}}
bad = 0
for row in open(path):
    side, pair, line = row.rstrip("\n").split("\t", 2)
    try:
        r = json.loads(line)
    except ValueError:
        bad += 1
        continue
    if not r["correct"] or r["failed"]:
        bad += 1
    runs[side][int(pair)] = {n: r["metrics"][n]["value"] for n in names}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

print(f"\n{workload}, seed {seed}: {len(runs['parent'])} parent and "
      f"{len(runs['change'])} change runs; {bad} with a failed check or no result")
common = sorted(set(runs["parent"]) & set(runs["change"]))
for n in names:
    p = [runs["parent"][i][n] for i in sorted(runs["parent"])]
    c = [runs["change"][i][n] for i in sorted(runs["change"])]
    if not p or not c:
        continue
    higher_better = n == "ops_per_s"
    wins = sum(
        (runs["change"][i][n] > runs["parent"][i][n]) if higher_better
        else (runs["change"][i][n] < runs["parent"][i][n])
        for i in common
    )
    pm, cm = statistics.median(p), statistics.median(c)
    pq, cq = quartiles(p), quartiles(c)
    ratio = cm / pm if pm else float("nan")
    print(f"{n:14} parent {pm:10.4g} [{pq[0]:.4g}, {pq[1]:.4g}]  "
          f"change {cm:10.4g} [{cq[0]:.4g}, {cq[1]:.4g}]  "
          f"x{ratio:.3f}  change better in {wins}/{len(common)} pairs")
    print(f"{'':14} parent runs {[round(v, 4) for v in p]}")
    print(f"{'':14} change runs {[round(v, 4) for v in c]}")
EOF
