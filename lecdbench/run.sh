#!/usr/bin/env bash
# Builds cmd/lecd and the benchmark from this checkout into .bench_build,
# then runs the benchmark with the given arguments, e.g.
#   bash lecdbench/run.sh --workload hot-hits --seed 1 --seconds 15 --trace 0
#   bash lecdbench/run.sh -compare <parent results dir> <change results dir>
# Run it from the root of the checkout. Everything it writes stays under
# .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOPATH="$out/gopath" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$out/lecd" ./cmd/lecd
(cd lecdbench && go build -o "$out/lecdbench" .)
exec "$out/lecdbench" -lecd "$out/lecd" -out "$out" "$@"
