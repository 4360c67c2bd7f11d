#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the checkout root. Everything the build and the
# run write stays under .bench_build/ in the checkout.
#
#   bash _perfbench/run.sh --workload nbwp-address --seed 1 --seconds 30 --trace 0
#   bash _perfbench/run.sh --steady 10 --seconds 30
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly CGO_ENABLED=0
(cd _perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
