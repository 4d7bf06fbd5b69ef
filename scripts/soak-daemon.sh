#!/bin/sh
# soak-daemon.sh -- the last stage of `make soak`, and the one place the
# real daemon binary runs: boot lsgraphd (2 shards, auto-rebalance armed so
# the skewed T6 mix moves boundaries under load), drive it with lsload's
# open-loop mixes for the given duration each, then SIGTERM it so signal
# handling and the graceful drain are exercised. lsload exits non-zero if
# the daemon never came up; its latency/throughput/shed report is written
# to BENCH_soak.json (git-ignored: every run writes its own).
#
# Usage: scripts/soak-daemon.sh <duration per mix, e.g. 30s>
set -eu

cd "$(dirname "$0")/.."

time="${1:?usage: scripts/soak-daemon.sh <duration per mix>}"
addr=127.0.0.1:7421

bindir=$(mktemp -d)
daemon_pid=""
trap '[ -n "$daemon_pid" ] && { kill "$daemon_pid" 2>/dev/null || true; wait "$daemon_pid" 2>/dev/null || true; }; rm -rf "$bindir"' EXIT

go build -o "$bindir/lsgraphd" ./cmd/lsgraphd
go build -o "$bindir/lsload" ./cmd/lsload

"$bindir/lsgraphd" -addr "$addr" -shards 2 -autorebalance 1.5 &
daemon_pid=$!

# lsload polls /healthz before generating load, so no readiness loop here.
"$bindir/lsload" -addr "http://$addr" -mix T1,T4,T5,T6 -rate 300 \
	-duration "$time" -shards 2 -out BENCH_soak.json -tag soak

# A drain that fails or hangs past lsgraphd's own -drain bound fails the soak.
kill -TERM "$daemon_pid"
wait "$daemon_pid"
daemon_pid=""

echo "wrote BENCH_soak.json"
