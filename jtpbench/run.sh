#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build and the run write stays under .bench_build/ in the
# checkout: Go build cache, module cache, temp files and traced-run output.
#
#   bash jtpbench/run.sh --workload chain_sweep --seed 1 --seconds 30 --trace 0
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/xdg"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/xdg"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS="-buildvcs=false"

(cd "$bench_dir" && go build -trimpath -o "$build/jtpbench" .)
cd "$root"
exec "$build/jtpbench" "$@"
