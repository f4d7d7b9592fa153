#!/usr/bin/env bash
# Builds the benchmark and the pmsynthd daemon from this tree into
# .bench_build/ at the repository root, then runs the benchmark:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the build and the run write
# stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
    echo "perfbench/run.sh: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
    exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/pmsynthd" ./cmd/pmsynthd
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
