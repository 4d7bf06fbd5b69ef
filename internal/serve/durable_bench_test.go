package serve

import (
	"sync"
	"testing"

	"lsgraph/internal/core"
	"lsgraph/internal/gen"
	"lsgraph/internal/wal"
)

// BenchmarkIngestWAL is the fsync-policy overhead measurement behind
// OPERATIONS.md "Choosing -fsync": the same Zipf(1.0) stream of 8 192-edge
// batches, two concurrent producers (as the HTTP handlers are, so one
// producer's log write overlaps the other's scatter) into two shard
// writers, against a memory-only store and a WAL-backed one at each fsync
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
			cfg := core.Config{Shards: tc.shards}
			var st *Store
			if tc.durable {
				var err error
				st, err = OpenDurable(n, cfg, Options{},
					DurabilityOptions{Dir: b.TempDir(), Fsync: tc.fsync})
				if err != nil {
					b.Fatal(err)
				}
			} else {
				st = New(core.NewPaged(n, cfg), Options{})
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
