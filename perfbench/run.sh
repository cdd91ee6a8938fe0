#!/usr/bin/env bash
# Builds the binaries under test (bvindex, bvserve, bvrouter) and the
# benchmark from this checkout's source into .bench_build, then runs the
# benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload static-heavy --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=

go build -o "$build/bin/" ./cmd/bvindex ./cmd/bvserve ./cmd/bvrouter
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --bin "$build/bin" --work "$build/work" "$@"
