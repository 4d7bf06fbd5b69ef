package serve

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"lsgraph/internal/core"
	"lsgraph/internal/gen"
	"lsgraph/internal/wal"
)

// BenchmarkIngestWAL is the fsync-policy overhead measurement behind
// OPERATIONS.md "Choosing -fsync": the same Zipf(1.0) stream of 8 192-edge
// batches, two concurrent producers (as the HTTP handlers are, so one
// producer's log write overlaps the other's scatter) into a two-shard
// Store, against a memory-only store and a WAL-backed one at each fsync
// policy. A policy's overhead is its ns/op over mem's. mem-1shard is the
// only measurement of enqueue over a one-range map, which no ruler
// workload runs. `-benchtime 64x` cycles each producer's batches once.
func BenchmarkIngestWAL(b *testing.B) {
	const n, batch, producers, ring = 8192, 8192, 2, 32
	type cols struct{ src, dst []uint32 }
	var batches [producers][ring]cols
	for p := range batches {
		z := gen.NewZipf(n, 1.0, 7+uint64(p))
		for k := range batches[p] {
			batches[p][k].src, batches[p][k].dst = z.Batch(batch)
		}
	}
	for _, tc := range []struct {
		name    string
		shards  int
		durable bool
		fsync   wal.FsyncPolicy
	}{
		{"mem", 2, false, 0},
		{"none", 2, true, wal.FsyncNone},
		{"interval", 2, true, wal.FsyncInterval},
		{"always", 2, true, wal.FsyncAlways},
		{"mem-1shard", 1, false, 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var st *Store
			if tc.durable {
				var err error
				st, err = OpenDurable(n, tc.shards, 0, Options{},
					DurabilityOptions{Dir: b.TempDir(), Fsync: tc.fsync})
				if err != nil {
					b.Fatal(err)
				}
			} else {
				st = New(core.NewPaged(n, tc.shards, 0), Options{})
			}
			defer st.Close()
			b.SetBytes(batch * 8)
			b.ResetTimer()
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := p; i < b.N; i += producers {
						c := batches[p][i/producers%ring]
						st.InsertBatch(c.src, c.dst)
					}
				}(p)
			}
			wg.Wait()
			st.Flush()
		})
	}
}

// BenchmarkRecover is the ruler's durable-recover reopen as a Go benchmark:
// a two-shard store loaded with the G15 rMat graph (589 824 edges) and
// checkpointed, then a tail logged past the checkpoint, closed and reopened
// b.N times. Each recovery phase is reported in ms (the median over the
// reopens, from Store.Recovery), next to the whole reopen. Sub-benchmarks:
//
//   - insert: 32 batches of 10 000 new edges, the ruler's tail;
//   - alternating: the same 320 000 edges as 3 200 batches of 100 that
//     alternate insert and delete over one pool of 10 000 new edges, every
//     edge inserted and deleted 16 times. Its reduce costs about what
//     insert's does — one sort, not a fold per op change — its keys only
//     wider by the run index.
//
// The first reopen also reports alloc-B/tail-edge: what the open allocated
// beyond the recovered graph's own published bytes, per tail edge.
func BenchmarkRecover(b *testing.B) {
	const scale, pairs, tailEdges = 15, 9 << 15, 320_000
	src, dst, _ := streamGraph(scale, pairs+tailEdges/2, 0)
	base, fresh := [2][]uint32{src[:2*pairs], dst[:2*pairs]}, [2][]uint32{src[2*pairs:], dst[2*pairs:]}
	type record struct {
		del      bool
		src, dst []uint32
	}
	tails := []struct {
		name    string
		records []record
	}{{name: "insert"}, {name: "alternating"}}
	for i := 0; i < tailEdges; i += 10_000 {
		tails[0].records = append(tails[0].records, record{false, fresh[0][i : i+10_000], fresh[1][i : i+10_000]})
	}
	for i := 0; i < tailEdges/100; i++ {
		lo := i / 2 % 100 * 100
		tails[1].records = append(tails[1].records, record{i%2 == 1, fresh[0][lo : lo+100], fresh[1][lo : lo+100]})
	}
	for _, tc := range tails {
		b.Run(tc.name, func(b *testing.B) {
			dir := b.TempDir()
			dopt := DurabilityOptions{Dir: dir, Fsync: wal.FsyncNone}
			st, err := OpenDurable(1<<scale, 2, 2, Options{}, dopt)
			if err != nil {
				b.Fatal(err)
			}
			st.InsertBatch(base[0], base[1])
			st.Flush()
			if err := st.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			for _, r := range tc.records {
				if r.del {
					st.DeleteBatch(r.src, r.dst)
				} else {
					st.InsertBatch(r.src, r.dst)
				}
				st.Flush()
			}
			want := st.NumEdges()
			st.Close()

			var phases [6][]float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var m0, m1 runtime.MemStats
				if i == 0 {
					runtime.ReadMemStats(&m0)
				}
				t := time.Now()
				re, err := OpenDurable(1<<scale, 2, 2, Options{}, dopt)
				total := time.Since(t)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					runtime.ReadMemStats(&m1)
					var held uint64
					for i := range re.shards {
						held += re.shards[i].shard.Published().Total()
					}
					b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc-held)/float64(re.Recovery().ReplayedEdges), "alloc-B/tail-edge")
				}
				if got := re.NumEdges(); got != want {
					b.Fatalf("recovered %d edges, the store held %d", got, want)
				}
				r := re.Recovery()
				for j, ns := range []int64{r.LoadNanos, r.ScanNanos, r.ReduceNanos, r.MergeNanos, r.PublishNanos, total.Nanoseconds()} {
					phases[j] = append(phases[j], float64(ns)/1e6)
				}
				re.Close()
			}
			b.StopTimer()
			for j, name := range []string{"load", "scan", "reduce", "merge", "publish", "reopen"} {
				slices.Sort(phases[j])
				b.ReportMetric(phases[j][len(phases[j])/2], name+"-ms")
			}
		})
	}
}
