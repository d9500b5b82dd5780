#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it with the given
# flags. Run from the repository root:
#
#   bash perfbench/run.sh --workload periodic --seed 1 --seconds 30 --trace 0
#
# Every build and cache file stays under .bench_build in the current
# directory. Without the acorn sources next to perfbench/ the build fails
# and the script exits non-zero before printing a result.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
