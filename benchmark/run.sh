#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# checkout's root. Everything the Go toolchain and the benchmark write
# (build cache, binary, store data, traces) goes under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off
unset XDG_CACHE_HOME XDG_CONFIG_HOME
(cd "$here" && go build -o "$build/cole-benchmark" .)
cd "$root"
exec "$build/cole-benchmark" -tmp "$build/data" "$@"
