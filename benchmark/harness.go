package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"lsgraph"
)

// sizes fixes the work of one round of every workload. The full sizes are
// the ones BENCHMARK.json's numbers are measured with; smoke shrinks them so
// the package's own tests stay fast. -seconds only decides how many rounds of
// this fixed work a run repeats.
type sizes struct {
	scale int // rMat scale of every workload's base graph

	minRound int // measured rounds a run makes even when -seconds is already over

	engBatches, engBatchEdges int // engine-batch: inserts (then deletes) per round
	stBatches, stBatchEdges   int // store-stream: inserts (then deletes) per round
	kernelPR, kernelBFS       int // PageRank and BFS runs per round
	readChunks, readChunk     int // neighbour reads per round, timed per chunk

	httpClients, httpDeck int // serve-mixed: closed-loop clients, ops per shuffled deck
	// httpWrites is a multiple of 2*httpPool, so that every deck ends with
	// all of the client's batches deleted again.
	httpWrites, httpBFS      int // writes and BFS requests per deck
	httpPR                   int // PageRank requests per deck
	httpPool, httpBatchEdges int // write batches per client, edges per batch
	httpLoadEdges            int // edges per preload request

	durBatches, durBatchEdges int // durable-recover: logged batches per cycle
	durReopens                int // timed reopens per cycle
}

var fullSizes = sizes{
	scale: 15, minRound: 2,
	engBatches: 8, engBatchEdges: 25_000,
	stBatches: 128, stBatchEdges: 1_000,
	kernelPR: 6, kernelBFS: 12,
	readChunks: 64, readChunk: 1024,
	httpClients: 2, httpDeck: 2000, httpWrites: 192, httpBFS: 40, httpPR: 2,
	httpPool: 32, httpBatchEdges: 1_000, httpLoadEdges: 50_000,
	durBatches: 32, durBatchEdges: 10_000, durReopens: 3,
}

var smokeSizes = sizes{
	scale: 10, minRound: 1,
	engBatches: 2, engBatchEdges: 1_000,
	stBatches: 8, stBatchEdges: 100,
	kernelPR: 1, kernelBFS: 2,
	readChunks: 2, readChunk: 64,
	httpClients: 2, httpDeck: 100, httpWrites: 8, httpBFS: 2, httpPR: 1,
	httpPool: 4, httpBatchEdges: 100, httpLoadEdges: 2_000,
	durBatches: 4, durBatchEdges: 200, durReopens: 1,
}

// workers is the parallelism of every engine, store and kernel in the run.
func workers() int { return min(runtime.NumCPU(), 4) }

// run is the state of one workload run: the samples behind every metric, the
// operation counts, and the span recorder when the run is traced.
type run struct {
	sz      sizes
	seed    uint64
	seconds float64
	tmp     string // scratch directory for durable state, inside the checkout

	rec *recorder // nil unless the run is traced

	mu        sync.Mutex
	round     int                 // 0 is the warm-up round
	recorded  map[int]bool        // rounds of a traced run whose spans were recorded
	samples   map[string][]sample // every sample with the round it was taken in
	attempted int
	failed    int
	firstErr  error
}

// sample is one measurement and the round it belongs to.
type sample struct {
	round int
	v     float64
}

func newRun(sz sizes, seed uint64, seconds float64, tmp string, traced bool) *run {
	r := &run{sz: sz, seed: seed, seconds: seconds, tmp: tmp, samples: map[string][]sample{}, recorded: map[int]bool{}}
	if traced {
		r.rec = newRecorder()
	}
	return r
}

func (r *run) add(name string, v float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], sample{r.round, v})
	r.mu.Unlock()
}

// values returns every sample of name as taken, in order.
func (r *run) values(name string) []float64 {
	out := make([]float64, len(r.samples[name]))
	for i, s := range r.samples[name] {
		out[i] = s.v
	}
	return out
}

// perRound returns the typical sample (midmean) of name in each round that
// has any, keeping only the rounds keep accepts (nil keeps all).
func (r *run) perRound(name string, keep func(round int) bool) map[int]float64 {
	by := map[int][]float64{}
	for _, s := range r.samples[name] {
		if keep == nil || keep(s.round) {
			by[s.round] = append(by[s.round], s.v)
		}
	}
	out := make(map[int]float64, len(by))
	for round, xs := range by {
		out[round] = midmean(xs)
	}
	return out
}

// Scaling of a metric by the host's speed, see result.
const (
	asMeasured = iota
	timeLike   // a duration: scaled by calibRefMs / the round's calibration
	rateLike   // work per second: scaled the other way
	readLike   // a neighbours read: scaled by readRefUs / the round's reference read where it has one
)

// calibRefMs and readRefUs are what calibrate and a reference read take on an
// undisturbed host of the class the sizes were chosen on.
const (
	calibRefMs = 1.25
	readRefUs  = 0.06
)

// result reduces a metric's samples to the run's value: the median, over the
// measured rounds, of each round's midmean. A duration or a rate is first
// scaled by calibRefMs over the round's own calibration time, so that it
// reads as it would on an undisturbed host: the sandbox's memory system runs
// up to 1.8x slower for seconds to minutes at a time, and the calibration
// loop, which touches none of the program under test, slows with it
// (README.md has the measurements). n is the number of samples behind the
// value.
func (r *run) result(name string, scaling int, keep func(round int) bool) (v float64, n int) {
	calib, readRef := r.perRound("host.calib_ms", nil), r.perRound("host.read_ref_us", nil)
	var rounds []float64
	for round, med := range r.perRound(name, keep) {
		c, ok := calib[round]
		ref, isRead := readRef[round]
		switch {
		case scaling == asMeasured:
		case scaling == readLike && isRead:
			med *= readRefUs / ref
		case !ok:
			continue
		case scaling == rateLike:
			med *= c / calibRefMs
		default:
			med *= calibRefMs / c
		}
		rounds = append(rounds, med)
	}
	return median(rounds), len(r.samples[name])
}

// fail counts n operations as failed: an error, a refused request or an
// output the oracle disagrees with.
func (r *run) fail(n int, err error) {
	if n == 0 {
		return
	}
	r.mu.Lock()
	r.failed += n
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.mu.Unlock()
}

// check counts one verification as an attempted operation, failed when err
// is not nil.
func (r *run) check(err error) {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
	if err != nil {
		r.fail(1, err)
	}
}

// op runs f as one front-door operation: it is counted as attempted, timed,
// and, in a traced run, recorded as a root span whose id f receives as the
// parent of the calls it makes. An operation whose f returns an error is
// failed and contributes to no latency metric.
func (r *run) op(name string, f func(root int, op uint64) error) (time.Duration, bool) {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
	op := r.rec.newOp()
	root := r.rec.begin(name, -1, op)
	t0 := time.Now()
	err := f(root, op)
	d := time.Since(t0)
	r.rec.end(root)
	if err != nil {
		r.fail(1, fmt.Errorf("%s: %w", name, err))
		return d, false
	}
	return d, true
}

// rounds calls round until -seconds have passed, and at least sz.minRound
// times, after one discarded warm-up round. Every round does the same work,
// so how many of them fit changes the sample counts and not the medians.
func (r *run) rounds(round func(measured bool) error) error {
	if err := round(false); err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < r.sz.minRound || time.Since(start).Seconds() < r.seconds; i++ {
		r.round++
		// A traced run records every other round, so that the same run
		// measures what recording costs.
		if r.rec != nil {
			r.rec.on = i%2 == 0
			r.recorded[r.round] = r.rec.on
		}
		if err := round(true); err != nil {
			return err
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// median returns the median of xs, NaN when xs is empty.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// midmean returns the mean of the middle half of xs (the interquartile
// mean), NaN when xs is empty. Like the median it ignores the tails; unlike
// the median it does not jump when xs has two modes of near-equal weight,
// which the latency of a request that may or may not have to wait for a CPU
// has.
func midmean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// heapLive forces a collection and returns the bytes of live heap objects.
func heapLive() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// kernels runs nPR PageRank and nBFS BFS operations on g, which holds
// wantReached vertices reachable from hub, and checks each output.
func (r *run) kernels(g lsgraph.Reader, hub uint32, wantReached, nPR, nBFS int, measured bool) {
	for i := 0; i < nPR; i++ {
		var ranks []float64
		d, _ := r.op("op.pagerank", func(root int, op uint64) error {
			r.rec.call("algo.pagerank", root, op, func() { ranks = lsgraph.PageRank(g, 10) })
			return nil
		})
		if err := checkRanks(ranks); err != nil {
			r.fail(1, err)
		} else if measured {
			r.add("pagerank_ms", ms(d))
		}
	}
	for i := 0; i < nBFS; i++ {
		var parents []int32
		d, _ := r.op("op.bfs", func(root int, op uint64) error {
			r.rec.call("algo.bfs", root, op, func() { parents = lsgraph.BFS(g, hub) })
			return nil
		})
		if got := reachedCount(parents); got != wantReached {
			r.fail(1, fmt.Errorf("bfs reached %d vertices, oracle reaches %d", got, wantReached))
		} else if measured {
			r.add("bfs_ms", ms(d))
		}
	}
}

// readLimit is how many neighbours one read returns at most, the same bound
// the HTTP workload passes as ?limit=.
const readLimit = 64

// readTraffic is a workload's pre-generated neighbour reads: the vertices,
// how many neighbours each read must return, and the harness's own flat copy
// of the graph they are read from. The same reads are timed on that copy as
// the reference that the in-process read_p50_us is scaled by (see result).
type readTraffic struct {
	verts []uint32
	want  []uint8
	offs  []uint32 // CSR over adj, indexed by vertex
	adj   []uint32
}

// newReadTraffic draws count Zipf(0.99) vertices to read on state o.
func newReadTraffic(seed, stream uint64, o *oracle, count int) *readTraffic {
	t := &readTraffic{
		verts: zipfVertices(seed, stream, o.n, count),
		want:  make([]uint8, count),
		offs:  make([]uint32, len(o.offs)),
		adj:   make([]uint32, len(o.keys)),
	}
	for i, off := range o.offs {
		t.offs[i] = uint32(off)
	}
	for i, k := range o.keys {
		t.adj[i] = uint32(k)
	}
	for i, v := range t.verts {
		t.want[i] = uint8(min(o.offs[v+1]-o.offs[v], readLimit))
	}
	return t
}

// refRead is the reference read: up to readLimit neighbours of v copied out
// of the flat copy.
func (t *readTraffic) refRead(v uint32, buf []uint32) int {
	ns := t.adj[t.offs[v]:t.offs[v+1]]
	return copy(buf[:readLimit], ns)
}

// readWarm is how many chunks each slice of reads runs untimed first, so
// that the timed ones start with the caches the previous operation emptied
// filled again.
const readWarm = 2

// reads performs slice part of parts of the round's neighbour reads through
// read, which returns how many neighbours it saw (at most readLimit). The
// slices sit between the round's other operations, so reads sample the whole
// round. A single read is well under a microsecond on the in-process front
// doors, so a chunk is timed as a whole and read_p50_us is the chunk's time
// per read; the same chunk is timed on the harness's flat copy first.
func (r *run) reads(t *readTraffic, read func(v uint32, buf []uint32) int, part, parts int, measured bool) {
	buf := make([]uint32, readLimit)
	first, last := part*r.sz.readChunks/parts, (part+1)*r.sz.readChunks/parts
	if first == last {
		return
	}
	for c := first - readWarm; c < last; c++ {
		lo := max(c, first) * r.sz.readChunk
		chunk, want := t.verts[lo:lo+r.sz.readChunk], t.want[lo:lo+r.sz.readChunk]
		bad := 0
		t0 := time.Now()
		for i, v := range chunk {
			if t.refRead(v, buf) != int(want[i]) {
				bad++
			}
		}
		ref := time.Since(t0)
		d, _ := r.op("op.read_chunk", func(root int, op uint64) error {
			r.rec.call("read.neighbors", root, op, func() {
				for i, v := range chunk {
					if read(v, buf) != int(want[i]) {
						bad++
					}
				}
			})
			return nil
		})
		r.mu.Lock()
		r.attempted += len(chunk) - 1 // op counted the chunk as one
		r.mu.Unlock()
		if bad > 0 {
			r.fail(bad, fmt.Errorf("%d reads returned the wrong number of neighbours", bad))
		} else if measured && c >= first {
			r.add("host.read_ref_us", float64(ref)/1e3/float64(len(chunk)))
			r.add("read_p50_us", float64(d)/1e3/float64(len(chunk)))
		}
	}
}

// collect copies up to readLimit neighbours of v into buf and returns how
// many it copied.
func collect(g reader, v uint32, buf []uint32) int {
	buf = buf[:0]
	g.NeighborBlocks(v, func(b []uint32) bool {
		buf = append(buf, b[:min(len(b), readLimit-len(buf))]...)
		return len(buf) < readLimit
	})
	return len(buf)
}

// calibrate runs a fixed loop of dependent random reads and writes over
// 8 MiB on each of two goroutines and records its time as a host.calib_ms
// sample of the current round. It touches none of the program under test, so
// a round in which it is slow is a round in which the host was disturbed;
// result scales the round's timings by it. Every workload calls it between
// the phases of a round, after the reads rather than before them, because it
// empties the caches.
func (r *run) calibrate() {
	var wg sync.WaitGroup
	pass := func() {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := calibBufs[g]
				x := uint64(g + 1)
				for i := 0; i < 1<<17; i++ {
					x = x*6364136223846793005 + 1442695040888963407
					buf[x>>44] += x
				}
			}()
		}
		wg.Wait()
	}
	// The first pass is not timed: it brings the loop's own pages back
	// after whatever ran before, so the timed one depends on the host alone.
	pass()
	t0 := time.Now()
	pass()
	r.add("host.calib_ms", ms(time.Since(t0)))
}

// calibBufs are 8 MiB each: larger than the sandbox's per-core caches.
var calibBufs = [2][]uint64{make([]uint64, 1<<20), make([]uint64, 1<<20)}
