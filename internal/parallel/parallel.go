// Package parallel provides the fork-join primitives LSGraph uses in place
// of the paper's OpenCilk runtime: chunked parallel-for over index ranges,
// a bounded worker pool, and a parallel sort for packed edge keys.
//
// All primitives degrade to sequential execution when the requested
// parallelism is 1, which the benchmark harness uses for the single-thread
// analyses of Figure 4 and the scalability sweep of Figure 17.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"lsgraph/internal/obs"
)

// Per-worker utilization metrics (exported as one series per worker). They
// are recorded only while obs collection is enabled; the disabled cost is
// one atomic load per fork-join call.
var (
	obsChunks = obs.NewPerWorkerCounter("lsgraph_parallel_chunks_total", "",
		"dynamically claimed chunks, by worker")
	obsBlocks = obs.NewPerWorkerCounter("lsgraph_parallel_blocks_total", "",
		"statically assigned blocks processed, by worker")
	obsBusy = obs.NewPerWorkerCounter("lsgraph_parallel_busy_nanos_total", "",
		"nanoseconds spent inside loop bodies, by worker")
)

// Procs is the default parallelism used by For and Sort when the caller
// passes p <= 0. It is initialized to runtime.GOMAXPROCS(0) and may be
// overridden for experiments.
var Procs = runtime.GOMAXPROCS(0)

// grainSize is the minimum number of iterations a worker claims at a time.
// Small enough to balance power-law skew, large enough to amortize the
// atomic fetch-add.
const grainSize = 64

// For runs f(i) for every i in [0, n) using p workers (p <= 0 means
// parallel.Procs). Iterations are claimed in dynamically scheduled chunks so
// that skewed per-iteration costs (high-degree vertices) stay balanced.
func For(n, p int, f func(i int)) {
	ForChunk(n, p, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
}

// ForChunk runs f(lo, hi) over disjoint chunks covering [0, n) using p
// workers. It is the loop primitive used by hot inner loops that want to
// hoist per-chunk state out of the iteration body.
func ForChunk(n, p int, f func(lo, hi int)) {
	ForChunkW(n, p, func(_, lo, hi int) { f(lo, hi) })
}

// ForChunkW is ForChunk with the claiming worker's index passed to f
// (0 <= w < p), for callers that keep per-worker state (padded accumulator
// slots, obs shard indexes) without atomics.
func ForChunkW(n, p int, f func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	if p <= 0 {
		p = Procs
	}
	if p > n/grainSize {
		p = n/grainSize + 1
	}
	on := obs.Enabled()
	if p <= 1 {
		if !on {
			f(0, 0, n)
			return
		}
		t := obs.Now()
		f(0, 0, n)
		obsChunks.AddShard(0, 1)
		obsBusy.AddShard(0, uint64(obs.Now()-t))
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				lo := int(next.Add(grainSize)) - grainSize
				if lo >= n {
					return
				}
				hi := lo + grainSize
				if hi > n {
					hi = n
				}
				if on {
					t := obs.Now()
					f(w, lo, hi)
					obsBusy.AddShard(w, uint64(obs.Now()-t))
					obsChunks.AddShard(w, 1)
				} else {
					f(w, lo, hi)
				}
			}
		}(w)
	}
	wg.Wait()
}

// ForBlocked runs f(b) for each of nb statically assigned blocks, one
// goroutine per worker, blocks distributed round-robin. Unlike For it
// guarantees that block b is processed by worker b%p, which the batch
// updater uses to pin all updates of one vertex to one worker.
func ForBlocked(nb, p int, f func(b int)) {
	ForBlockedW(nb, p, func(_, b int) { f(b) })
}

// ForBlockedW is ForBlocked with the owning worker's index passed to f
// (block b is always processed by worker b%p, so w is deterministic).
func ForBlockedW(nb, p int, f func(w, b int)) {
	if nb <= 0 {
		return
	}
	if p <= 0 {
		p = Procs
	}
	if p > nb {
		p = nb
	}
	on := obs.Enabled()
	if p <= 1 {
		var t int64
		if on {
			t = obs.Now()
		}
		for b := 0; b < nb; b++ {
			f(0, b)
		}
		if on {
			obsBlocks.AddShard(0, uint64(nb))
			obsBusy.AddShard(0, uint64(obs.Now()-t))
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func(w int) {
			defer wg.Done()
			var t int64
			if on {
				t = obs.Now()
			}
			nb64 := uint64(0)
			for b := w; b < nb; b += p {
				f(w, b)
				nb64++
			}
			if on {
				obsBlocks.AddShard(w, nb64)
				obsBusy.AddShard(w, uint64(obs.Now()-t))
			}
		}(w)
	}
	wg.Wait()
}

// Workers runs f(w) for every w in [0, p) concurrently and waits for all of
// them, with the calling goroutine as worker 0, so p <= 1 is a plain call.
// It is the primitive for loops that schedule themselves — static spans of
// a shared array, or claims from a counter the caller owns — and want only
// the fork-join and a stable worker index for per-worker state.
func Workers(p int, f func(w int)) {
	run := f
	if obs.Enabled() {
		run = func(w int) {
			t := obs.Now()
			f(w)
			obsBusy.AddShard(w, uint64(obs.Now()-t))
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			run(w)
		}(w)
	}
	run(0)
	wg.Wait()
}

// Run executes the given thunks concurrently and waits for all of them.
func Run(fs ...func()) {
	var wg sync.WaitGroup
	wg.Add(len(fs))
	for _, f := range fs {
		go func(f func()) {
			defer wg.Done()
			f()
		}(f)
	}
	wg.Wait()
}
