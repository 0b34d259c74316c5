#!/usr/bin/env bash
# Builds castlebench from source and runs it; arguments pass through:
#
#   bash cmd/castlebench/run.sh --workload sim-cape --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build at the
# root of the checkout (the Go build cache and the go command's own
# settings included), and the benchmark runs as the only process left once
# the build is done.
set -euo pipefail
root=$(cd "$(dirname "$0")/../.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOTOOLCHAIN=local \
	go -C cmd/castlebench build -o "$build/castlebench" .
# Write the fresh build cache back to disk now rather than during the
# measured window.
sync
exec "$build/castlebench" "$@"
