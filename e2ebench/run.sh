#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it is run in and runs
# it, passing every argument through (see e2ebench/README.md). Run it
# from the repository root:
#
#   bash e2ebench/run.sh --workload cli-csv --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write (Go build cache, binary, inputs,
# trace files) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod CGO_ENABLED=0
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .) >&2
exec "$build/e2ebench" "$@"
