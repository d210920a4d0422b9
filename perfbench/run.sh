#!/usr/bin/env bash
# Builds the misused daemon and the benchmark from source, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload wire_ngram_short --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build in the
# current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/misused" ./cmd/misused
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --daemon "$out/misused" --work "$out/work" "$@"
