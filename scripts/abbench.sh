#!/usr/bin/env bash
# abbench.sh — same-host A/B of the benchmark workloads: this checkout
# against a base commit, run in alternating pairs.
#
#   scripts/abbench.sh [workload ...]      (default: every BENCHMARK.json workload)
#
# Knobs via environment:
#
#   BASE=rev           base commit (default HEAD~1; use HEAD to measure
#                      uncommitted changes against the last commit)
#   PAIRS=N            alternating pairs per workload        (default 10)
#   SEED=n             perfbench --seed                      (default 1)
#   RUN_SECONDS=s      perfbench --seconds (default: BENCHMARK.json run_seconds)
#
# The base commit is exported with `git archive` into a temporary directory,
# and each side is built by its own perfbench/run.py from its own sources
# (`--trace 0`). Pair i runs the base first when i is even and the checkout
# first when i is odd, so drift on a shared host falls on both sides alike.
# For every end-to-end metric of BENCHMARK.json the summary prints each
# side's median and quartiles, the median ratio (checkout/base) and how many
# pairs the checkout won in the metric's better direction. Runs that report
# correct:false are counted and flagged; a run that fails stops the script
# with its side, workload and error output. The script reads perfbench/ and
# BENCHMARK.json. It writes under the temporary directory, which is removed
# on exit, and run.py builds each side into that side's .bench_build/ (for
# this checkout, ./.bench_build/).
set -euo pipefail
cd "$(dirname "$0")/.."

BASE="${BASE:-HEAD~1}"
PAIRS="${PAIRS:-10}"
SEED="${SEED:-1}"
RUN_SECONDS="${RUN_SECONDS:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"

if [ "$#" -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi

base_rev="$(git rev-parse --short "$BASE")"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/base"
git archive "$BASE" | tar -x -C "$tmp/base"

# run SIDE-DIR WORKLOAD OUT: one perfbench invocation, its JSON line appended
# to OUT. A failed build or run exits the script with its error output.
run() {
    local side=base
    [ "$1" = . ] && side=checkout
    if ! (cd "$1" && python3 perfbench/run.py --workload "$2" --seed "$SEED" \
        --seconds "$RUN_SECONDS" --trace 0 2>"$tmp/run.err" | tail -n 1) >>"$3"; then
        echo "abbench: $side run of $2 failed:" >&2
        cat "$tmp/run.err" >&2
        exit 1
    fi
}

echo "abbench: checkout vs $base_rev, $PAIRS pairs, seed $SEED, ${RUN_SECONDS}s per run" >&2
for w in "${workloads[@]}"; do
    : >"$tmp/$w.base"
    : >"$tmp/$w.head"
    for ((i = 0; i < PAIRS; i++)); do
        if ((i % 2 == 0)); then
            run "$tmp/base" "$w" "$tmp/$w.base"
            run . "$w" "$tmp/$w.head"
        else
            run . "$w" "$tmp/$w.head"
            run "$tmp/base" "$w" "$tmp/$w.base"
        fi
        echo "abbench: $w pair $((i + 1))/$PAIRS done" >&2
    done
done

python3 - "$tmp" "$base_rev" "${workloads[@]}" <<'EOF'
import json
import statistics
import sys

tmp, base_rev, workloads = sys.argv[1], sys.argv[2], sys.argv[3:]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]


def load(path):
    return [json.loads(line) for line in open(path) if line.strip()]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


for w in workloads:
    base, head = load(f"{tmp}/{w}.base"), load(f"{tmp}/{w}.head")
    pairs = min(len(base), len(head))
    bad = sum(not r.get("correct") for r in base + head)
    print(f"== {w}: checkout vs {base_rev}, {pairs} pairs"
          + (f", {bad} runs NOT correct" if bad else ", all runs correct"))
    print(f"{'metric':22} {'base q1 / median / q3':>36} {'checkout q1 / median / q3':>36} {'ratio':>7} {'wins':>6}")
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        b = [r["metrics"][name]["value"] for r in base[:pairs]]
        h = [r["metrics"][name]["value"] for r in head[:pairs]]
        if not b or not h:
            continue
        bq, hq = quartiles(b), quartiles(h)
        wins = sum((y > x) if higher else (y < x) for x, y in zip(b, h))
        ratio = hq[1] / bq[1] if bq[1] else float("nan")
        fmt = lambda q: f"{q[0]:.4g} / {q[1]:.4g} / {q[2]:.4g}"
        print(f"{name:22} {fmt(bq):>36} {fmt(hq):>36} {ratio:7.3f} {wins:>3}/{pairs}")
EOF
