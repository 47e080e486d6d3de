#!/usr/bin/env bash
# Builds magnet-server, magnet-build and the benchmark from this checkout's
# sources into .bench_build/, then runs the benchmark with the given
# arguments. Run from the repository root:
#
#   bash clickbench/run.sh --workload study-tasks --seed 1 --seconds 20 --trace 0
#
# Every build input and output stays inside the checkout: the Go build
# cache lives in .bench_build/ too.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$out/bin/magnet-server" ./cmd/magnet-server
go build -o "$out/bin/magnet-build" ./cmd/magnet-build
(cd clickbench && go build -o "$out/bin/clickbench" .)
exec "$out/bin/clickbench" -bin "$out/bin" -work "$out/run" "$@"
