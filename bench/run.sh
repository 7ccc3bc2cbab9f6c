#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; every
# argument goes to the program (see README.md). Nothing is read or written
# outside the checkout: the Go build cache lives in .bench_build/ too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C bench -o "$build/negfbench" .
exec "$build/negfbench" "$@"
