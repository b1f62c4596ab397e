#!/usr/bin/env bash
# Builds the benchmark driver from this checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload mc-heavy --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay in .bench_build/ at the root
# of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
