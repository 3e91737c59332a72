#!/usr/bin/env bash
# Builds and runs the benchmark with everything Go writes (build cache,
# temporary files, the binaries) kept under .bench_build in the checkout.
# BENCHMARK.json's command is "bash benchmark/run.sh"; arguments pass
# through to the program, see main.go.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/shored" ]; then
    echo "benchmark/run.sh: $root is not the adaptivecc repository (no go.mod or cmd/shored)" >&2
    exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
cd "$here"
go build -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" "$@"
