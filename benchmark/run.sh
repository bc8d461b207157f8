#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there. Everything the build writes (Go build
# cache, module cache, binary) stays inside the checkout.
#
#   bash benchmark/run.sh --workload micro_classic --seed 7 --seconds 10 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off

commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
go -C "$here" build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/swole-benchmark" .

cd "$root"
exec "$build/swole-benchmark" "$@"
