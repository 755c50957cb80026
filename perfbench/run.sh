#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, which holds the program the benchmark builds:
#
#   bash perfbench/run.sh --workload batch --seed 1 --seconds 15 --trace 0
#
# Every build and run artefact stays under .bench_build in the current
# directory: the Go build cache, the binary, per-run scratch files and the
# Chrome traces of traced runs.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
