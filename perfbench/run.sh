#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload backbone --seed 42 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, Chrome traces and the
# saved reports.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local GOFLAGS=

go -C "$root/perfbench" build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
