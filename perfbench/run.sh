#!/usr/bin/env bash
# Builds the fleet benchmark from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload small-256 --seed 1 --seconds 10 --trace 0
# Run from the repository root. The Go build cache and the binary live
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
