#!/usr/bin/env bash
# Builds the benchmark driver from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, spill
# segments, traces) goes under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/core" ]; then
	echo "perfbench: run from the root of a lockdown checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
