#!/usr/bin/env bash
# The BENCHMARK.json command: build the benchmark from the checkout's own
# source into .bench_build/ (Go's caches included, so nothing is written
# outside the checkout) and run it with the arguments given.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/swiftbench" ./bench
exec "$build/swiftbench" "$@"
