#!/usr/bin/env bash
# Builds the benchmark and the macrosim worker from source inside the
# checkout, then runs the benchmark with the given arguments. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload fig6-sweep --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin"
# Keep the Go build cache and module cache inside the checkout, never
# fetch a toolchain or module, and build from the local tree only.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOENV=off
( cd "$root/perfbench" && go build -o "$build/bin/perfbench" . ) >&2
go build -o "$build/bin/macrosim" ./cmd/macrosim >&2
exec "$build/bin/perfbench" "$@"
