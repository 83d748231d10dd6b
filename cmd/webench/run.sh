#!/usr/bin/env bash
# Builds cmd/webench from source and runs it with the given arguments. Run it
# from the repository root, e.g.
#
#   bash cmd/webench/run.sh --workload lib-mem-seq --seed 1 --seconds 12 --trace 0
#   bash cmd/webench/run.sh --seed 1            # every workload, one child each
#
# Everything the build writes (Go build cache, temporary files, the binary and
# trace files) stays under .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd cmd/webench && go build -buildvcs=false -o "$out/webench" .) >&2

commit=unknown
if [ -e .git ] && command -v git >/dev/null 2>&1; then
  commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/webench" --commit "$commit" "$@"
