#!/bin/sh
# soak-daemon.sh -- the last stage of `make soak`, and the one place the
# real daemon binary runs: boot a durable lsgraphd (2 shards, auto-rebalance
# armed so the skewed T6 mix moves boundaries under load, WAL and
# checkpoints in a temporary -data directory), drive it with lsload's
# open-loop mixes for the given duration each, then SIGTERM it so signal
# handling and the graceful drain are exercised. It then restarts the
# daemon on the same directory twice: the first boot must recover the
# `load` graph with its edges; after a DELETE of that graph, the second
# must not bring it back. lsload exits non-zero if the daemon never came
# up; its latency/throughput/shed report is written to BENCH_soak.json
# (git-ignored: every run writes its own).
#
# Usage: scripts/soak-daemon.sh <duration per mix, e.g. 30s>
set -eu

cd "$(dirname "$0")/.."

time="${1:?usage: scripts/soak-daemon.sh <duration per mix>}"
addr=127.0.0.1:7421

tmpdir=$(mktemp -d)
daemon_pid=""
trap '[ -n "$daemon_pid" ] && { kill "$daemon_pid" 2>/dev/null || true; wait "$daemon_pid" 2>/dev/null || true; }; rm -rf "$tmpdir"' EXIT

go build -o "$tmpdir/lsgraphd" ./cmd/lsgraphd
go build -o "$tmpdir/lsload" ./cmd/lsload

# boot starts the daemon on the data directory and, unless lsload is to
# wait for it, polls /healthz until it answers.
boot() {
	"$tmpdir/lsgraphd" -addr "$addr" -shards 2 -autorebalance 1.5 -data "$tmpdir/data" &
	daemon_pid=$!
	[ "${1:-}" = nowait ] && return
	tries=0
	until curl -fs "http://$addr/healthz" >/dev/null; do
		kill -0 "$daemon_pid" 2>/dev/null || { echo "soak: lsgraphd exited during boot" >&2; exit 1; }
		tries=$((tries + 1))
		[ "$tries" -lt 300 ] || { echo "soak: lsgraphd did not come up" >&2; exit 1; }
		sleep 0.1
	done
}

# drain SIGTERMs the daemon; a drain that fails or hangs past lsgraphd's
# own -drain bound fails the soak.
drain() {
	kill -TERM "$daemon_pid"
	wait "$daemon_pid"
	daemon_pid=""
}

# load_edges prints the edge count GET /v1/graphs lists for the `load`
# graph, nothing when it lists no such graph.
load_edges() {
	curl -fs "http://$addr/v1/graphs" | grep -o '"name":"load","vertices":[0-9]*,"edges":[0-9]*' | sed 's/.*"edges"://'
}

# lsload polls /healthz before generating load, so no readiness loop here.
boot nowait
"$tmpdir/lsload" -addr "http://$addr" -mix T1,T4,T5,T6 -rate 300 \
	-duration "$time" -shards 2 -out BENCH_soak.json -tag soak
drain

boot
edges=$(load_edges)
[ -n "$edges" ] && [ "$edges" -gt 0 ] || { echo "soak: restart did not recover graph load (edges: '$edges')" >&2; exit 1; }
echo "restart recovered graph load with $edges edges"
curl -fs -X DELETE "http://$addr/v1/graphs/load" >/dev/null
drain

boot
[ -z "$(load_edges)" ] || { echo "soak: dropped graph load came back after restart" >&2; exit 1; }
drain
echo "dropped graph stayed dropped across a restart"

echo "wrote BENCH_soak.json"
