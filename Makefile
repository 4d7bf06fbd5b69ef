GO ?= go

.PHONY: all build test verify perf soak fuzz loc clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

# The pre-merge gate, and all of it: formatting, vet of both modules (the
# root's ./... stops at benchmark/, which imports internal/*), build, godoc
# presence, every test of both modules once under the race detector (the
# simulator seeds and the crash-recovery matrix included), the strictest
# pointer-arithmetic checks on the two packages behind the vertex block's
# unsafe.Pointer (every unsafe.Slice must stay inside one live allocation),
# one iteration of every benchmark, and the tracing-off overhead budget, the
# allocation-free view pin, the one-allocation enqueue (its copy of the
# batch, into a queue with room and right after a Flush emptied it) and the
# two-allocation binary ingest decode on an uninstrumented
# build (the race build skips the enqueue and decode guards: its
# instrumentation changes what allocates).
verify:
	@unformatted=$$(gofmt -l .); [ -z "$$unformatted" ] || { echo "gofmt needed on:" $$unformatted >&2; exit 1; }
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...
	$(GO) build ./...
	$(GO) run ./cmd/doccheck . internal/*
	$(GO) test -race -shuffle=on ./...
	cd benchmark && $(GO) test -race -shuffle=on ./...
	$(GO) test -count=1 -gcflags=all=-d=checkptr=2 ./internal/core ./internal/ria
	$(GO) test -run '^$$' -bench . -benchtime 1x ./... > /dev/null
	$(GO) test -count=1 -run '^TestTraceDisabledOverheadGuard$$' ./internal/obs
	$(GO) test -count=1 -run '^(TestViewPinAllocs|TestEnqueueAllocs|TestFlushedEnqueueAllocs)$$' . ./internal/serve
	$(GO) test -count=1 -run '^TestIngestDecodeAllocs$$' ./internal/httpserve
	@echo "verify: OK"

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

# Long-running randomized checks, each stage bounded by SOAK_TIME (a Go
# duration, e.g. `make soak SOAK_TIME=10m`): the differential simulator
# against the refgraph oracle on fresh seeds, kill-and-recover scenarios
# crashing at a file operation drawn from a fault-free run of the same plan
# against the acked-records oracle, then
# the real lsgraphd binary, durable, under lsload's open-loop mixes
# (SOAK_TIME per mix) with auto-rebalance armed, stopped by SIGTERM so signal
# handling and the drain path run, then restarted on its data directory: the
# graph must come back, and after a DELETE must not; last, a flushed batch
# must survive a SIGKILL of the daemon. The load report lands in
# BENCH_soak.json (untracked).
SOAK_TIME ?= 2m
soak:
	LSGRAPH_SOAK_TIME=$(SOAK_TIME) \
		$(GO) test -count=1 -run '^TestSoak' -timeout 0 -v ./internal/check
	sh scripts/soak-daemon.sh $(SOAK_TIME)

# Coverage-guided fuzzing of every Fuzz* target in the module for FUZZTIME
# each, seeded from the corpora under each package's testdata/fuzz/.
# Crashers are written there too; commit them.
FUZZTIME ?= 10s
fuzz:
	@for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "== go test -fuzz $$target -fuzztime $(FUZZTIME) $$pkg"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
		done; \
	done
	@echo "fuzz: OK"

# Lines of non-test Go in each package of the root module, then their
# total: the counts a change that deletes code reports. benchmark/ is its
# own module and is not counted.
loc:
	@$(GO) list -f '{{$$d := .Dir}}{{.ImportPath}}{{range .GoFiles}} {{$$d}}/{{.}}{{end}}' ./... | \
		awk '{ n = 0; for (i = 2; i <= NF; i++) { while ((getline l < $$i) > 0) n++; close($$i) } \
			printf "%6d  %s\n", n, $$1; t += n } END { printf "%6d  total\n", t }'

clean:
	$(GO) clean ./...
