#!/bin/sh
# loadtest.sh -- measure the serving front-end: boot lsgraphd, drive it
# with the open-loop lsload harness across three workload mixes, and
# record latency percentiles + throughput in BENCH_<tag>.json (a {tag,
# unit, benchmarks} report, git-ignored: every run writes its own).
#
# Usage: scripts/loadtest.sh [tag]   (default tag: loadtest; or: make loadtest)
# Env:   LOADTEST_TIME=5s    measured run length per mix (2s in CI smoke)
#        LOADTEST_RATE=300   offered load in requests/second
#        LOADTEST_MIX=T1,T4,T5,T6  workload mixes to run (T6 = skewed writes)
#        LOADTEST_SHARDS=2   shard writers for the target graph
#        LOADTEST_AUTOREB=1.5  auto-rebalance skew threshold (0 disables)
#        LOADTEST_ADDR=127.0.0.1:7421  daemon listen address
set -eu

cd "$(dirname "$0")/.."

tag="${1:-loadtest}"
time="${LOADTEST_TIME:-5s}"
rate="${LOADTEST_RATE:-300}"
mix="${LOADTEST_MIX:-T1,T4,T5,T6}"
shards="${LOADTEST_SHARDS:-2}"
autoreb="${LOADTEST_AUTOREB:-1.5}"
addr="${LOADTEST_ADDR:-127.0.0.1:7421}"
out="BENCH_${tag}.json"

bindir=$(mktemp -d)
daemon_pid=""
trap '[ -n "$daemon_pid" ] && { kill "$daemon_pid" 2>/dev/null || true; wait "$daemon_pid" 2>/dev/null || true; }; rm -rf "$bindir"' EXIT

go build -o "$bindir/lsgraphd" ./cmd/lsgraphd
go build -o "$bindir/lsload" ./cmd/lsload

# -autorebalance arms the background resharder, so the skewed T6 mix
# exercises live boundary moves under open-loop load.
"$bindir/lsgraphd" -addr "$addr" -shards "$shards" -autorebalance "$autoreb" &
daemon_pid=$!

# lsload polls /healthz before generating load, so no separate readiness
# loop is needed here.
"$bindir/lsload" \
	-addr "http://$addr" \
	-mix "$mix" \
	-rate "$rate" \
	-duration "$time" \
	-shards "$shards" \
	-out "$out" \
	-tag "$tag"

# Exercise the daemon's graceful drain path rather than killing it.
kill -TERM "$daemon_pid"
wait "$daemon_pid" || true

echo "wrote $out"
