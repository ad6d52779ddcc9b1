#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the programs under test
# and the harness from source into .bench_build/ at the checkout root
# (Go's build cache included, so nothing is written outside the
# checkout), then runs the harness with the arguments given.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$root" && go build -o "$build/bin/" ./cmd/dsr-shard ./cmd/dsr-serve)
(cd "$root/bench" && go build -o "$build/bin/dsr-bench" .)
exec "$build/bin/dsr-bench" -bin "$build/bin" -tmp "$build/tmp" "$@"
