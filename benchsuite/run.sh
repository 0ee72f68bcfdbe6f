#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments. Run it from the repository root:
#
#   bash benchsuite/run.sh --workload hot-snippets --seed 1 --seconds 36 --trace 0
#
# Every build product and Go cache stays under .bench_build/ in the working
# directory. Build output goes to stderr, so the last stdout line is the
# benchmark's JSON result.
set -euo pipefail

root="$(pwd)"
suite="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C "$suite" build -o "$build/benchsuite" . >&2
exec "$build/benchsuite" "$@"
