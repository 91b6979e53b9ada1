#!/usr/bin/env bash
# Builds the benchmark binary from the sources of the checkout it is run
# in, then runs it with the given arguments. Run it from the repository
# root: bash bench/run.sh --workload paper-suite --seed 1 --seconds 30 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files, the
# binary) stays under .bench_build/ in the checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off CGO_ENABLED=0

go -C bench build -o "$build/unimem-benchmark" .
exec "$build/unimem-benchmark" "$@"
