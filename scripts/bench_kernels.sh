#!/usr/bin/env bash
# Benchmark smoke job for the dense hot-path kernels: runs the
# micro-benchmarks (with allocation counting) plus the end-to-end sequential
# WALK-ESTIMATE benchmark, records ns/op and allocs/op in BENCH_kernels.json,
# and captures a CPU pprof profile of the end-to-end run as bench_cpu.pprof
# for the CI artifact.
#
# The allocs/op entries double as a coarse regression tripwire in review:
# BenchmarkBackStep*, BenchmarkNeighborsHot* and BenchmarkHistoryRow must
# stay at 0 (the same contract testing.AllocsPerRun enforces in the tests),
# and the sparse-visit memory benches must stay bounded by visited mass
# (a first paged History sync >= 100x smaller than the dense baseline).
#
# Usage: scripts/bench_kernels.sh [benchtime]   (default 100000x for micro,
#        10x for the end-to-end benchmark)
set -euo pipefail
cd "$(dirname "$0")/.."

MICROTIME="${1:-100000x}"
OUT="BENCH_kernels.json"
RAW="$(mktemp)"
ENTRY="$(mktemp)"
trap 'rm -f "$RAW" "$ENTRY"' EXIT

# Micro-benchmarks across the kernel packages.
go test -run '^$' \
  -bench 'BenchmarkBackStep$|BenchmarkBackStepNoEvidence$|BenchmarkHistoryRow$|BenchmarkEstimateOnce$|BenchmarkEstimateBatch$|BenchmarkNeighborsHot$|BenchmarkNeighborsHotShared$|BenchmarkUint64$|BenchmarkIntn$|BenchmarkFloat64$|BenchmarkStdRandIntn$' \
  -benchtime "$MICROTIME" -benchmem -timeout 20m \
  ./internal/core ./internal/osn ./internal/fastrand | tee "$RAW"

go test -run '^$' -bench 'BenchmarkBuilderBuild$' -benchtime 5x -benchmem \
  -timeout 20m ./internal/graph | tee -a "$RAW"

# Visited-mass memory contract benches: a first paged History sync and the
# paged client L1 on sparse visits over a 5M-id space, plus the dense copy
# baseline (one op copies ~320 MB, so it gets a tiny benchtime).
# CI asserts a >= 100x bytes/op reduction of paged vs dense copies.
go test -run '^$' -bench 'BenchmarkHistorySyncSparse$' -benchtime 200x \
  -benchmem -timeout 20m ./internal/core | tee -a "$RAW"
go test -run '^$' -bench 'BenchmarkHistorySyncSparseDense$' -benchtime 3x \
  -benchmem -timeout 20m ./internal/core | tee -a "$RAW"
go test -run '^$' -bench 'BenchmarkClientSparseL1Footprint$' -benchtime 100x \
  -benchmem -timeout 20m ./internal/osn | tee -a "$RAW"

# End-to-end sequential WALK-ESTIMATE, with a CPU profile for the artifact.
go test -run '^$' -bench 'BenchmarkParallelWE/Sequential' -benchtime 10x \
  -cpuprofile bench_cpu.pprof -timeout 30m . | tee -a "$RAW"

# Parse `go test -bench` lines into JSON. Lines look like:
#   BenchmarkBackStep-8  100000  43.17 ns/op  0 B/op  0 allocs/op
# The trailing -8 is the GOMAXPROCS suffix (omitted on 1-CPU machines);
# strip it so recorded names are stable across machines.
awk -v benchtime="$MICROTIME" '
  BEGIN { n = 0 }
  /^Benchmark/ {
    name = $1; iters = $2
    sub(/-[0-9]+$/, "", name)
    nsop = ""; bop = ""; allocs = ""
    for (i = 3; i < NF; i++) {
      if ($(i+1) == "ns/op")     nsop = $i
      if ($(i+1) == "B/op")      bop = $i
      if ($(i+1) == "allocs/op") allocs = $i
    }
    if (nsop == "") next
    line = sprintf("    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s", name, iters, nsop)
    if (bop != "")    line = line sprintf(", \"bytes_per_op\": %s", bop)
    if (allocs != "") line = line sprintf(", \"allocs_per_op\": %s", allocs)
    line = line "}"
    lines[n++] = line
  }
  END {
    printf "{\n  \"benchtime\": \"%s\",\n  \"benchmarks\": [\n", benchtime
    for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n-1 ? "," : "")
    printf "  ]\n}\n"
  }
' "$RAW" > "$ENTRY"
python3 scripts/bench_append.py "$OUT" "$ENTRY"
echo "(CPU profile in bench_cpu.pprof)"
