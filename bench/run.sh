#!/usr/bin/env bash
# Builds millibench from the sources of this checkout and runs it with the
# given flags. Run it from the repository root:
#
#   bash bench/run.sh --workload mimd --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, CPU profiles and span traces all stay under
# .bench_build/ in the current directory. Without the repository sources next
# to bench/ the build fails and the script exits non-zero.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C bench build -o "$out/millibench" ./millibench
exec "$out/millibench" "$@"
