#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's sources and runs it.
# Run from the repository root; arguments pass through to the benchmark:
#
#   bash e2ebench/run.sh --workload chat-tree --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files,
# settings) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
