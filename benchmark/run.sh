#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the checkout.
#
#   ./benchmark/run.sh [flags]          see `-h`; no flags runs all four workloads
#   ./benchmark/run.sh --twice [flags]  runs the set twice and compares the two
#
# Everything the build writes — the binary, the go build cache, the toolchain's
# own bookkeeping — goes under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
build=$root/.bench_build
mkdir -p "$build/home"
HOME=$build/home XDG_CONFIG_HOME=$build/home/.config XDG_CACHE_HOME=$build/home/.cache \
GOCACHE=$build/gocache GOPATH=$build/gopath GOFLAGS= GOTOOLCHAIN=local GOPROXY=off \
    go build -C benchmark -o "$build/benchmark" .

if [ "${1:-}" = "--twice" ]; then
    shift
    "$build/benchmark" -out benchmark/out/first.json "$@"
    "$build/benchmark" -out benchmark/out/second.json "$@"
    exec "$build/benchmark" -compare benchmark/out/first.json benchmark/out/second.json
fi
exec "$build/benchmark" "$@"
