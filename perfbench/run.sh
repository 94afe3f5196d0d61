#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload ecperf-8p --seed 20030208 --seconds 20 --trace 0
#
# Everything the build and the runs write stays in .bench_build/ under the
# current directory: the binary, the Go build cache and any flight-recorder
# dumps.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
