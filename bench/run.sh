#!/usr/bin/env bash
# The driver's entry point: BENCHMARK.json's command. It builds the daemon
# and the benchmark from source into .bench_build/ (inside the checkout,
# Go caches included) and runs the benchmark with the driver's arguments:
#
#   bash bench/run.sh --workload svc-read --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout. It fails, printing no result, where
# the repository's sources are missing.
set -euo pipefail

if [[ ! -f go.mod || ! -f bench/go.mod || ! -d cmd/potluckd ]]; then
	echo "bench/run.sh: run from the root of a checkout that holds go.mod, cmd/potluckd and bench/" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/potluckd" ./cmd/potluckd
(cd bench && go build -o "$build/potluck-bench" .)

exec "$build/potluck-bench" -daemon .bench_build/potluckd -workdir .bench_build/tmp -out bench/out "$@"
