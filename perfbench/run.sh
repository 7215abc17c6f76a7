#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# arguments given, e.g.
#
#   bash perfbench/run.sh --workload daemon-dense --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. Everything the build and the run
# write (Go build cache, binary, sink file, span dumps) stays under
# .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=-mod=readonly

go -C perfbench build -o "$out/perfbench" .

# One process per workload, pinned to one P: at GOMAXPROCS=2 on a shared
# 2-vCPU host the same code spread 36-54% in CPU per round.
GOMAXPROCS=1 exec "$out/perfbench" -out-dir "$out" "$@"
