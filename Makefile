GO ?= go

.PHONY: all build test race verify perf bench-obs soak soak-recover fuzz trace-demo loadtest bench-recover clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

# Race-detector pass over the packages with real cross-goroutine traffic;
# the package list lives in scripts/race.sh (shared with scripts/verify.sh).
race:
	sh scripts/race.sh

verify:
	sh scripts/verify.sh

# The repo's benchmark (BENCHMARK.json, benchmark/README.md): one run of
# `bash benchmark/run.sh` per workload, each printing its eight end-to-end
# metrics. Pass flags through PERF_ARGS, e.g.
# `make perf PERF_WORKLOADS=store-stream PERF_ARGS="--seed 7 --trace 1"`.
PERF_WORKLOADS ?= engine-batch store-stream serve-mixed durable-recover
PERF_ARGS ?=
perf:
	@for w in $(PERF_WORKLOADS); do \
		bash benchmark/run.sh --workload $$w $(PERF_ARGS) || exit 1; \
	done

# Long-running randomized differential sweep (internal/check simulator)
# against the refgraph oracle. Bound it with SOAK_TIME, e.g.
# `make soak SOAK_TIME=10m`.
SOAK_TIME ?= 2m
soak:
	LSGRAPH_SOAK=1 LSGRAPH_SOAK_TIME=$(SOAK_TIME) \
		$(GO) test -run '^TestSoak$$' -timeout 0 -v ./internal/check

# Short coverage-guided fuzzing pass over every fuzz target; override the
# per-target budget with FUZZTIME, e.g. `make fuzz FUZZTIME=1m`.
fuzz:
	sh scripts/fuzz.sh

# Overhead check for the observability hooks (compare disabled vs enabled,
# and the flight recorder tracing-off vs tracing-on).
bench-obs:
	$(GO) test -run xxx -bench ObsOverhead -count 3 ./internal/core

# Flight-recorder demo: run the traced lsbench workload (4 shards, forced
# coalescing, kernel + view-pin spans), assert every lifecycle phase was
# recorded, and write trace.json — load it in ui.perfetto.dev or
# chrome://tracing. CI uploads trace.json as an artifact.
trace-demo:
	$(GO) run ./cmd/lsbench -exp trace -quick -trace trace.json | tee trace-demo.log
	@grep -q "phase coverage: OK" trace-demo.log || { echo "trace-demo: lifecycle phase coverage incomplete" >&2; rm -f trace-demo.log; exit 1; }
	@rm -f trace-demo.log
	@echo "trace-demo: trace.json written; load it in ui.perfetto.dev"

# End-to-end serving SLO measurement: boot lsgraphd, drive it with the
# open-loop lsload harness (seeded Poisson arrivals, T1/T4/T5 workload
# mixes), and write p50/p90/p99 + throughput to BENCH_loadtest.json
# (untracked; CI uploads it as the run's artifact). Tune with
# LOADTEST_TIME / LOADTEST_RATE / LOADTEST_MIX, e.g.
# `make loadtest LOADTEST_TIME=30s LOADTEST_RATE=1000`.
export LOADTEST_TIME LOADTEST_RATE LOADTEST_MIX LOADTEST_SHARDS LOADTEST_ADDR
loadtest:
	sh scripts/loadtest.sh

# Long-running kill-and-recover sweep: 150 seeded crash scenarios (50
# seeds x 3 shard counts, crash points drawn from the full lifecycle
# matrix), each recovered and differentially checked against the
# acked-records oracle.
soak-recover:
	LSGRAPH_SOAK_RECOVER=1 \
		$(GO) test -count=1 -run '^TestSoakRecover$$' -timeout 0 -v ./internal/check

# Durability benchmark: WAL ingest overhead per fsync policy vs the
# memory-only baseline, plus recovery speed (full replay and
# checkpoint-bounded). Writes BENCH_recover.json; the acceptance bar is
# <10% ingest overhead at fsync=interval. Tune repetitions with TRIALS.
TRIALS ?= 3
bench-recover:
	$(GO) run ./cmd/lsbench -exp recover -trials $(TRIALS) -json BENCH_recover.json -tag recover

clean:
	$(GO) clean ./...
