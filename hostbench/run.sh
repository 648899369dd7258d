#!/usr/bin/env bash
# Builds the host-time benchmark from source and runs one workload.
# Run from the repository root:
#
#   bash hostbench/run.sh --workload read-burst --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ (Go
# build cache, binary, the traced run's spans) or in a work directory the
# benchmark removes before it exits.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d hostbench ]; then
	echo "hostbench: run from the repository root (go.mod not found)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/hostbench" ./hostbench
exec "$out/hostbench" --spans-dir "$out/spans" "$@"
