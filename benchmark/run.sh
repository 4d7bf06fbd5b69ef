#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's "command".
# Everything it writes stays inside the checkout: the Go build cache and the
# binary under .bench_build/, traces and durable-store scratch under
# benchmark/out/.
#
#   bash benchmark/run.sh --workload store-stream --seed 7 --seconds 12 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ]; then
	echo "benchmark: $root holds no go.mod; run from a checkout of the whole repository" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/lsgraph-benchmark" .)

cd "$root"
exec "$build/lsgraph-benchmark" "$@"
