#!/usr/bin/env bash
# Builds perfbench from the source of the checkout it sits in and runs it.
# Run from the checkout's root:
#   bash perfbench/run.sh --workload http-local --seed 1 --seconds 15 --trace 0
# Build cache, temporary files and run outputs (WAL directories, spans, CPU
# profiles) all stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/run"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/run" "$@"
