// Package parallel provides the fork-join primitives LSGraph uses in place
// of the paper's OpenCilk runtime. Workers is the one fork-join: it runs a
// fixed set of worker indexes, the caller as worker 0, and is the only code
// here that starts goroutines. The loops compose it: ForChunkW claims
// grain-sized chunks of an index range from one counter, For runs one index
// at a time over ForChunkW, and ForBlockedW deals a few coarse blocks out to
// the workers round-robin. The sorts compose it too: ScatterByDigit is the
// one parallel partition pass, SortSeq the one sequential run sort, and
// SortUint64 one of the first followed by the second on every digit.
//
// All primitives degrade to sequential execution when the requested
// parallelism is 1, which the benchmark harness uses for the single-thread
// analyses of Figure 4 and the scalability sweep of Figure 17.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Procs is the default parallelism used by For and Sort when the caller
// passes p <= 0. It is initialized to runtime.GOMAXPROCS(0) and may be
// overridden for experiments.
var Procs = runtime.GOMAXPROCS(0)

// grainSize is the minimum number of iterations a worker claims at a time.
// Small enough to balance power-law skew, large enough to amortize the
// atomic fetch-add.
const grainSize = 64

// Workers runs f(w) for every w in [0, p) concurrently and waits for all of
// them, with the calling goroutine as worker 0, so p <= 1 is a plain call.
// It is the primitive for loops that schedule themselves — static spans of
// a shared array, or claims from a counter the caller owns — and want only
// the fork-join and a stable worker index for per-worker state. It returns,
// or re-raises a panic of worker 0, only once every worker has finished, so
// no worker outlives the call.
func Workers(p int, f func(w int)) {
	var wg sync.WaitGroup
	defer wg.Wait()
	for w := 1; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f(w)
		}(w)
	}
	if p > 1 {
		// The last goroutine started waits in this P's next-to-run slot,
		// which an idle P steals only after a back-off meant for a spawner
		// about to block. Yielding once runs it here at once and resumes
		// the caller, as worker 0, on the next free P.
		runtime.Gosched()
	}
	f(0)
}

// chunkWorkers returns the workers ForChunkW runs n iterations on for a
// requested parallelism p: at most one more than there are whole chunks.
func chunkWorkers(n, p int) int {
	if p <= 0 {
		p = Procs
	}
	return min(p, n/grainSize+1)
}

// For runs f(i) for every i in [0, n) using p workers (p <= 0 means
// parallel.Procs). Iterations are claimed in dynamically scheduled chunks so
// that skewed per-iteration costs (high-degree vertices) stay balanced. At
// one worker it is a plain loop that builds no closure, so a warm caller
// such as SnapshotInto allocates nothing in it.
func For(n, p int, f func(i int)) {
	if chunkWorkers(n, p) <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	ForChunkW(n, p, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
}

// ForChunkW runs f(w, lo, hi) over disjoint chunks covering [0, n) using p
// workers, w the claiming worker's index (0 <= w < p). It is the loop
// primitive for hot inner loops that hoist per-chunk state out of the
// iteration body or keep per-worker state (padded accumulator slots, obs
// shard indexes) without atomics; callers that need neither pass func(_, …).
// At one worker it is a plain call of f(0, 0, n).
func ForChunkW(n, p int, f func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	if p = chunkWorkers(n, p); p <= 1 {
		f(0, 0, n)
		return
	}
	var next atomic.Int64
	Workers(p, func(w int) {
		for {
			lo := int(next.Add(grainSize)) - grainSize
			if lo >= n {
				return
			}
			f(w, lo, min(lo+grainSize, n))
		}
	})
}

// ForBlockedW runs f(w, b) for each of nb statically assigned blocks,
// distributed round-robin over p workers (p <= 0 means parallel.Procs):
// block b is always processed by worker b%p. It is for a few coarse blocks
// — a grain-sized chunk would hand them all to one worker — and for callers
// that pin all updates of one vertex to one worker.
func ForBlockedW(nb, p int, f func(w, b int)) {
	if p <= 0 {
		p = Procs
	}
	k := min(p, nb)
	Workers(k, func(w int) {
		for b := w; b < nb; b += k {
			f(w, b)
		}
	})
}
