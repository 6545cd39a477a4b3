#!/usr/bin/env bash
# Builds the benchmark from source and runs it, all inside the checkout
# this script is called from (its root holds go.mod and BENCHMARK.json).
# The binary replaces this shell, so there is exactly one process to
# wait for and none left behind; never `go run`, whose child survives a
# killed parent.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gotmp"

# Everything the Go toolchain writes stays under .bench_build.
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOWORK=off

go build -C "$here" -o "$out/funnel-benchmark" .
cd "$root"
exec "$out/funnel-benchmark" -dir "$out/tmp" "$@"
