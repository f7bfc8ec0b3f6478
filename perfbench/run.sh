#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#   bash perfbench/run.sh --workload line-retele --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artifact (Go build cache,
# binary, span dumps) stays under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
