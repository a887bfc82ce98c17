#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper --seed 2001 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary and the scratch
# stores.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --tmp "$build/tmp" "$@"
