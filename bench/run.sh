#!/bin/sh
# Builds the benchmark and runs it. Run from the repository root:
#
#   sh bench/run.sh [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-out DIR]
#   sh bench/run.sh -compare BASE/results.json NEW/results.json
#
# bench/ is a Go module of its own, so that the benchmark and its smoke test
# stay out of the repository's build and test suite. The settings below keep
# every file the build writes under .bench_build/ (build cache, temporary
# files, the go command's configuration and telemetry counters), and keep
# the build offline with the installed toolchain.
set -eu
if [ ! -f go.mod ] || [ ! -d cmd/braidbench ] || [ ! -d cmd/braidd ]; then
	echo "bench/run.sh: run from the root of a braid checkout" >&2
	exit 2
fi
root=$(pwd)
export GOCACHE="$root/.bench_build/gocache" TMPDIR="$root/.bench_build/tmp" \
	XDG_CONFIG_HOME="$root/.bench_build/config" GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$TMPDIR"
go -C bench build -buildvcs=false -o "$root/.bench_build/bin/bench" .
exec "$root/.bench_build/bin/bench" "$@"
