#!/usr/bin/env bash
# Builds the benchmark and primacyd from the checkout it is run in, then runs
# one workload:
#
#   bash perfbench/run.sh --workload bulk --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and the
# run's results and spans all go under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/primacyd" ]]; then
	echo "run.sh: $root is not the repository root (no go.mod or cmd/primacyd)" >&2
	exit 1
fi
mkdir -p "$out/home" "$out/tmp"
# Keep every Go cache, temporary file and config write inside the checkout,
# and never reach for the network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" \
	TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOTELEMETRY=off
go build -o "$out/primacyd" ./cmd/primacyd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -primacyd "$out/primacyd" -work "$out" "$@"
