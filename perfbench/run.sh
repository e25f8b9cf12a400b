#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload kernel-recipe --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes (its
# build cache, temporary files, module and config directories) stays under
# .bench_build/ too, and no module is fetched: the benchmark needs only the
# standard library and the repository itself.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
