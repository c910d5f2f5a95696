#!/usr/bin/env bash
# Builds `watchman` and the benchmark from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload tpcd-hits --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# With telemetry on (the default "local" mode) the go command forks a
# detached telemetry process that outlives it; turned off, it forks none.
mkdir -p "$out/config/go/telemetry"
echo off > "$out/config/go/telemetry/mode"
cd "$root"
go build -o "$out/bin/watchman" ./cmd/watchman
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -daemon "$out/bin/watchman" "$@"
