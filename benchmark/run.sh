#!/usr/bin/env bash
# Entry point named by /BENCHMARK.json: build the benchmark from the
# checkout's sources, then run it with the given arguments. The binary,
# the Go build cache and Go's temporary files all live in .bench_build/
# at the root of the checkout, so nothing is written outside it.
# By hand, `go run ./benchmark` does the same with your own Go cache.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -o "$build/stellaris-benchmark" ./benchmark
exec "$build/stellaris-benchmark" "$@"
