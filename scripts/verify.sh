#!/bin/sh
# verify.sh -- the repo's pre-merge gate. Runs formatting, vet, build, the
# full test suite, the race detector on the concurrency-heavy packages
# (the sharded metrics registry and everything that feeds it from parallel
# workers), and the strictest pointer-arithmetic checks on the two packages
# behind the vertex block's unsafe.Pointer (every unsafe.Slice must stay
# inside one live allocation). Usage: scripts/verify.sh  (or: make verify)
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== godoc presence (every exported identifier documented)"
go run ./cmd/doccheck . internal/*

echo "== go test (-shuffle=on)"
go test -shuffle=on ./...

echo "== differential simulator smoke (200 seeded workloads, S in {1,2,4,8})"
go test -count=1 -run '^TestSimSeeds$' -timeout 10m ./internal/check

echo "== crash-recovery matrix (kill-and-recover at every WAL lifecycle point, S in {1,2,4})"
go test -count=1 -run '^TestCrash' -timeout 10m ./internal/check

echo "== go test -race (scripts/race.sh)"
sh scripts/race.sh

echo "== go test checkptr=2 (the vertex block's unsafe.Pointer overflow reference)"
go test -count=1 -gcflags=all=-d=checkptr=2 ./internal/core ./internal/ria

echo "== benchmark smoke (-benchtime 1x)"
go test -run '^$' -bench . -benchtime 1x ./... > /dev/null

echo "== tracing disabled-path overhead guard"
go test -count=1 -run '^TestTraceDisabledOverheadGuard$' ./internal/trace

echo "verify: OK"
