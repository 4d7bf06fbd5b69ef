#!/bin/sh
# fuzz.sh -- short coverage-guided fuzzing pass over every fuzz target:
# the data-structure models (ria, hitree), the I/O parsers (graphio), the
# WAL segment decoder and the checkpoint loader (wal), the publish/recycle
# path of a shard's page arena (core), and the engine-level differential
# simulators (check). Each target runs for
# FUZZTIME (default 10s), seeded from the checked-in corpora under each
# package's testdata/fuzz/. Crashers are written there too; commit them.
# Usage: scripts/fuzz.sh  (or: make fuzz, FUZZTIME=1m scripts/fuzz.sh)
set -eu

cd "$(dirname "$0")/.."

FUZZTIME=${FUZZTIME:-10s}

fuzz() {
	pkg=$1
	target=$2
	echo "== go test -fuzz $target -fuzztime $FUZZTIME $pkg"
	go test -run '^$' -fuzz "^${target}\$" -fuzztime "$FUZZTIME" "$pkg"
}

fuzz ./internal/ria FuzzOps
fuzz ./internal/hitree FuzzTreeOps
fuzz ./internal/graphio FuzzReadEdgeList
fuzz ./internal/wal FuzzWALDecode
fuzz ./internal/wal FuzzCheckpointLoad
fuzz ./internal/graphio FuzzReadCSR
fuzz ./internal/core FuzzPublishRecycle
fuzz ./internal/check FuzzEngineOps
fuzz ./internal/check FuzzStoreOps

echo "fuzz: OK"
