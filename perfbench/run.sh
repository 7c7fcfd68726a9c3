#!/usr/bin/env bash
# Builds the benchmark and its server command from source and runs it.
# Run from the repository root; every argument is passed through, e.g.
#
#	bash perfbench/run.sh --workload evict_large --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and all run data stay under
# .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
# The servers and the load generator run with the Go runtime's defaults,
# as hvacd ships; planned_batch's throughput moves 1.7x with GOGC alone.
unset GOGC GOMEMLIMIT GOMAXPROCS GODEBUG
(cd "$root/perfbench" && go build -o "$build/bin/" . ./hvacsrv)
exec "$build/bin/perfbench" "$@"
