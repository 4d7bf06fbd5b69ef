package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"lsgraph"
)

// workload is one entry of BENCHMARK.json's "workloads". BENCHMARK.json
// holds the reason each was chosen; README.md holds the long form.
type workload struct {
	name string
	run  func(r *run) (*graph, batch, error)
}

// Each run returns the graph and one update batch of its traffic, which the
// traced run then drives through the shadow stack (layers.go).
var workloads = []workload{
	{"engine-batch", engineBatch},
	{"store-stream", storeStream},
	{"serve-mixed", serveMixed},
	{"durable-recover", durableRecover},
}

// storeShards is the shard count of every Store the benchmark builds.
const storeShards = 2

// door is one open in-process front door to the engine: the bare Graph or
// the Store. The stream workload below drives either.
type door struct {
	// update submits one batch and returns once it is visible to readers.
	update func(root int, op uint64, b batch, del bool)
	// view returns a consistent graph for kernels and checks, and its release.
	view func() (lsgraph.BlockReader, func())
	// read is one neighbours read of at most readLimit neighbours.
	read  func(v uint32, buf []uint32) int
	close func()
}

// engineBatch is the paper's §6 setting: the bare Graph, large batches,
// kernels on the live RIA/HITree structures.
func engineBatch(r *run) (*graph, batch, error) {
	g := newGraph(r.seed, r.sz.scale)
	edges := make([]lsgraph.Edge, len(g.src))
	for i := range edges {
		edges[i] = lsgraph.Edge{Src: g.src[i], Dst: g.dst[i]}
	}
	open := func() door {
		lg := lsgraph.NewFromEdges(g.n, edges)
		return door{
			update: func(root int, op uint64, b batch, del bool) {
				if del {
					r.rec.call("core.delete_batch", root, op, func() { lg.DeleteBatch(b.src, b.dst) })
				} else {
					r.rec.call("core.insert_batch", root, op, func() { lg.InsertBatch(b.src, b.dst) })
				}
			},
			view:  func() (lsgraph.BlockReader, func()) { return lg, func() {} },
			read:  func(v uint32, buf []uint32) int { return collect(lg, v, buf) },
			close: func() {},
		}
	}
	return stream(r, g, open, r.sz.engBatches, r.sz.engBatchEdges)
}

// storeStream is the serving layer's steady state: small batches, each made
// visible before the next, on a graph whose per-batch publish dominates.
func storeStream(r *run) (*graph, batch, error) {
	g := newGraph(r.seed, r.sz.scale)
	open := func() door {
		st := lsgraph.NewStore(g.n, lsgraph.WithShards(storeShards))
		st.InsertBatch(g.src, g.dst)
		st.Flush()
		return door{
			update: func(root int, op uint64, b batch, del bool) { storeUpdate(r, st, root, op, b, del) },
			view: func() (lsgraph.BlockReader, func()) {
				v := st.View()
				return v, v.Release
			},
			read:  func(v uint32, buf []uint32) int { return storeRead(st, v, buf) },
			close: st.Close,
		}
	}
	return stream(r, g, open, r.sz.stBatches, r.sz.stBatchEdges)
}

// storeUpdate is one Store update from submit to visible: enqueue, then wait
// for the publish (on a durable store Flush is also the fsync barrier).
func storeUpdate(r *run, st *lsgraph.Store, root int, op uint64, b batch, del bool) {
	r.rec.call("serve.enqueue", root, op, func() {
		if del {
			st.DeleteBatch(b.src, b.dst)
		} else {
			st.InsertBatch(b.src, b.dst)
		}
	})
	r.rec.call("serve.flush_wait", root, op, st.Flush)
}

// storeRead is one Store read: pin a view, copy the neighbours, release.
func storeRead(st *lsgraph.Store, v uint32, buf []uint32) int {
	view := st.View()
	n := collect(view, v, buf)
	view.Release()
	return n
}

// rebuild times open, the program's set-up (construct, bulk-load the base
// graph, make it readable), checks the result's size and closes it again.
// Neither in-process front door keeps durable state, so a restart can only
// rebuild from the caller's edge list: the same call is their recover_s.
func (r *run) rebuild(metric string, open func() door, wantEdges uint64) {
	runtime.GC()
	t0 := time.Now()
	d := open()
	dur := time.Since(t0)
	view, release := d.view()
	got := view.NumEdges()
	release()
	d.close()
	if got != wantEdges {
		r.fail(1, fmt.Errorf("%s built %d edges, oracle has %d", metric, got, wantEdges))
		return
	}
	r.add(metric, dur.Seconds())
}

// stream runs the round shared by engine-batch and store-stream: insert
// every batch, run kernels and reads on the grown graph, delete every batch
// again. Every round therefore starts and ends on the base graph and does the
// same work; set-ups, updates, kernels, reads and rebuilds are interleaved so
// that each metric samples the whole run.
func stream(r *run, g *graph, open func() door, count, size int) (*graph, batch, error) {
	batches := newBatches(r.seed, 2, r.sz.scale, g, count, size)
	base, grown := newOracle(g, nil), newOracle(g, batches)
	reads := newReadTraffic(r.seed, 3, grown, r.sz.readChunks*r.sz.readChunk)
	wantReached := grown.reached(g.hub)
	heap0 := float64(heapLive())
	d := open()
	defer d.close()

	// An update sample is the mean of one batch's insert and its delete, and
	// a throughput sample covers both phases of a round: inserts and deletes
	// cost differently, and a median over the two mixed would sit between two
	// modes.
	ins := make([]time.Duration, len(batches))
	phase := func(del, measured bool) (wall time.Duration) {
		for i, b := range batches {
			dur, _ := r.op("op.update", func(root int, op uint64) error {
				d.update(root, op, b, del)
				return nil
			})
			wall += dur
			if !del {
				ins[i] = dur
			} else if measured {
				r.add("update_p50_ms", ms(ins[i]+dur)/2)
			}
		}
		runtime.GC()
		return wall
	}
	err := r.rounds(func(measured bool) error {
		r.calibrate()
		if measured {
			r.rebuild("setup_s", open, base.edges())
		}
		wall := phase(false, measured)
		r.calibrate()
		view, release := d.view()
		if !measured {
			r.check(grown.checkState(view, g.hub, r.seed))
		}
		r.reads(reads, d.read, 0, 4, measured)
		r.calibrate()
		r.kernels(view, g.hub, wantReached, r.sz.kernelPR, 0, measured)
		r.calibrate()
		r.reads(reads, d.read, 1, 4, measured)
		r.kernels(view, g.hub, wantReached, 0, r.sz.kernelBFS, measured)
		release()
		r.reads(reads, d.read, 2, 4, measured)
		runtime.GC()
		r.reads(reads, d.read, 3, 4, measured)
		r.calibrate()
		wall += phase(true, measured)
		r.calibrate()
		if measured {
			r.add("update_eps", float64(2*count*size)/wall.Seconds())
			r.add("heap_bytes_per_edge", (float64(heapLive())-heap0)/float64(base.edges()))
			r.rebuild("recover_s", open, base.edges())
			r.calibrate()
		}
		return nil
	})
	if err != nil {
		return nil, batch{}, err
	}
	view, release := d.view()
	r.check(base.checkState(view, g.hub, r.seed))
	release()
	return g, batches[0], nil
}

// durableRecover is the only workload with the write-ahead log on the write
// path and the only one that recovers from disk. Each cycle builds a durable
// store in a fresh directory, checkpoints it, logs the batches past the
// checkpoint, closes, and reopens the directory.
func durableRecover(r *run) (*graph, batch, error) {
	g := newGraph(r.seed, r.sz.scale)
	batches := newBatches(r.seed, 2, r.sz.scale, g, r.sz.durBatches, r.sz.durBatchEdges)
	full := newOracle(g, batches)
	reads := newReadTraffic(r.seed, 3, full, r.sz.readChunks*r.sz.readChunk)
	wantReached := full.reached(g.hub)
	heap0 := float64(heapLive())

	err := r.rounds(func(measured bool) error {
		dir, err := os.MkdirTemp(r.tmp, "durable-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		// The flush policy is fixed and stated: group commit every 50 ms, and
		// every Flush below is an fsync barrier.
		open := func() (*lsgraph.Store, error) {
			return lsgraph.OpenStore(g.n, lsgraph.WithShards(storeShards),
				lsgraph.WithDurability(dir, lsgraph.DurabilityOptions{Fsync: "interval", FsyncInterval: 50 * time.Millisecond}))
		}

		runtime.GC()
		r.calibrate()
		t0 := time.Now()
		st, err := open()
		if err != nil {
			return err
		}
		st.InsertBatch(g.src, g.dst)
		st.Flush()
		if measured {
			r.add("setup_s", time.Since(t0).Seconds())
		}
		r.op("op.checkpoint", func(root int, op uint64) error {
			var err error
			r.rec.call("wal.checkpoint", root, op, func() { err = st.Checkpoint() })
			return err
		})

		r.calibrate()
		var wall time.Duration
		for _, b := range batches {
			dur, _ := r.op("op.update", func(root int, op uint64) error {
				storeUpdate(r, st, root, op, b, false)
				return nil
			})
			wall += dur
			if measured {
				r.add("update_p50_ms", ms(dur))
			}
		}
		if measured {
			r.add("update_eps", float64(len(batches)*len(batches[0].src))/wall.Seconds())
		}
		r.calibrate()
		before := st.NumEdges()
		st.Close()
		st = nil
		runtime.GC()

		for i := 0; i < r.sz.durReopens; i++ {
			dur, ok := r.op("op.recover", func(root int, op uint64) error {
				var err error
				r.rec.call("serve.open_durable", root, op, func() { st, err = open() })
				return err
			})
			if !ok {
				return r.firstErr
			}
			if got := st.NumEdges(); got != before || got != full.edges() {
				r.fail(1, fmt.Errorf("recovered %d edges, store held %d before Close, oracle has %d", got, before, full.edges()))
			} else if measured {
				r.add("recover_s", dur.Seconds())
			}
			// The recovered store serves the same reads and kernels as any
			// other, a share of the cycle's after each reopen; they double as
			// the check that it recovered the right graph.
			n := r.sz.durReopens
			view := st.View()
			if i == n-1 {
				r.check(full.checkState(view, g.hub, r.seed))
			}
			r.kernels(view, g.hub, wantReached, r.sz.kernelPR/n, r.sz.kernelBFS/n, measured)
			view.Release()
			r.reads(reads, func(v uint32, buf []uint32) int { return storeRead(st, v, buf) }, i, n, measured)
			r.calibrate()
			if measured && i == n-1 {
				r.add("heap_bytes_per_edge", (float64(heapLive())-heap0)/float64(before))
			}
			st.Close()
		}
		return nil
	})
	return g, batches[0], err
}
