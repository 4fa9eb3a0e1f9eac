#!/usr/bin/env bash
# Builds the benchmark from source in the current checkout and runs it
# with the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload static-oblivious --seed 1 --seconds 15 --trace 0
#
# Build outputs and Go's caches stay under .bench_build/ in the
# checkout; the build never touches the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/benchmark" && go build -o "$out/suubench" .)
exec "$out/suubench" "$@"
