#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it. Run it
# from the repository root; every argument is passed through, e.g.
#
#   bash perfbench/run.sh --workload stream100k --seed 1 --seconds 30 --trace 0
#
# The build cache, the go command's config (and so its telemetry counters)
# and the binary live under .bench_build/ in the checkout, and toolchain or
# module downloads are switched off, so the benchmark writes nothing outside
# the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$(dirname "$0")" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
