#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json names this
# script as the command. Everything the build and the run write stays inside
# the checkout: the Go caches under .bench_build/, data and traces under
# benchmark/out/. --trace 1 selects the binary built with the layers tag.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
root=$(cd .. && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp" out

tags=""
bin=$build/hippo-benchmark
prev=""
for arg in "$@"; do
  if [[ ($prev == --trace || $prev == -trace) && $arg != 0 ]] || [[ $arg =~ ^--?trace=[^0] ]]; then
    tags=layers
    bin=$build/hippo-benchmark-layers
  fi
  prev=$arg
done

export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
go build -buildvcs=false -tags "$tags" -o "$bin" .
commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
exec "$bin" -commit "$commit" "$@"
