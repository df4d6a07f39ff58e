#!/usr/bin/env bash
# Builds the benchmark harness and the binaries it drives (midas-serve,
# midas-worker) from the checkout it is run in, then runs the harness:
#
#   bash perfbench/run.sh --workload des-fig15 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it writes, including the
# Go build cache, stays under .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/midas-serve ] || [ ! -d internal ]; then
	echo "perfbench: run from the repository root (no go.mod, cmd/ or internal/ here)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/bin/" ./cmd/midas-serve ./cmd/midas-worker
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
