#!/usr/bin/env bash
# bench.sh — run the engine, router, NI and fabric-tick benchmark suite and emit a
# machine-readable summary (BENCH_PR10.json by default).
#
# Dependency-free: go, git and awk only. Knobs via environment:
#
#   BENCH_OUT=path          output file             (default BENCH_PR10.json)
#   BENCHTIME=dur|Nx        -benchtime for micro-benchmarks   (default 1s)
#   SINGLE_BENCHTIME=Nx     -benchtime for BenchmarkSingleRun (default 1x;
#                           it simulates a full config per iteration)
#
# CI runs this with BENCHTIME=1x as a smoke test; numbers published in
# EXPERIMENTS.md come from the defaults on an otherwise idle machine.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${BENCH_OUT:-BENCH_PR10.json}"
BENCHTIME="${BENCHTIME:-1s}"
SINGLE_BENCHTIME="${SINGLE_BENCHTIME:-1x}"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

run() { # pkg bench-regexp benchtime
    go test "$1" -run '^$' -bench "$2" -benchtime "$3" -benchmem | tee -a "$tmp"
}

run ./internal/sim/ 'BenchmarkScheduleAndRun|BenchmarkEngine' "$BENCHTIME"
run ./internal/core/ 'BenchmarkRouter' "$BENCHTIME"
run ./internal/network/ 'BenchmarkNIStep' "$BENCHTIME"
run . 'BenchmarkFabricTick' "$BENCHTIME"
run . 'BenchmarkSingleRun$' "$SINGLE_BENCHTIME"

awk -v commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    -v goversion="$(go env GOVERSION)" \
    -v benchtime="$BENCHTIME" '
BEGIN { n = 0 }
/^pkg:/ { pkg = $2 }
/^cpu:/ { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip GOMAXPROCS suffix if present
    iters[n] = $2; ns[n] = $3; bytes[n] = $5; allocs[n] = $7
    names[n] = name; pkgs[n] = pkg
    n++
}
END {
    printf "{\n"
    printf "  \"commit\": \"%s\",\n", commit
    printf "  \"go\": \"%s\",\n", goversion
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"benchmarks\": [\n"
    for (i = 0; i < n; i++) {
        printf "    {\"pkg\": \"%s\", \"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
            pkgs[i], names[i], iters[i], ns[i], bytes[i], allocs[i], (i < n-1 ? "," : "")
    }
    printf "  ]\n}\n"
}' "$tmp" > "$OUT"

echo "wrote $OUT"
