#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#
#   bash bench/run.sh --workload wire-rtt --seed 1 --seconds 20 --trace 0
#
# Run from the root of a checkout. Everything the build and the run write
# — Go's build cache, the binary, WAL directories, span files — goes
# under .bench_build in the current directory, and nothing is downloaded
# (the module has no dependency outside this repository).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-cache" GOPATH="$out/go-path"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off

go build -C "$here" -o "$out/bench" .
exec "$out/bench" "$@"
