package pma

import (
	"math/rand"
	"testing"
)

// Counterparts to internal/ria's microbenchmarks: the PMA's insert pays
// binary search over a gapped array plus window redistributions, the two
// §2.3 bottlenecks.

func randomKeys(n int, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	ks := make([]uint32, n)
	for i := range ks {
		ks[i] = rng.Uint32()
	}
	return ks
}

func BenchmarkInsertRandom(b *testing.B) {
	ks := randomKeys(1<<16, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := New[uint32]()
		for _, k := range ks {
			p.Insert(k)
		}
	}
	b.ReportMetric(float64(len(ks)*b.N)/b.Elapsed().Seconds(), "inserts/s")
}

func BenchmarkHas(b *testing.B) {
	ks := randomKeys(1<<16, 3)
	p := New[uint32]()
	for _, k := range ks {
		p.Insert(k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Has(ks[i%len(ks)])
	}
}

func BenchmarkBlocks(b *testing.B) {
	ks := randomKeys(1<<16, 4)
	p := New[uint32]()
	for _, k := range ks {
		p.Insert(k)
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		p.Blocks(func(bs []uint32) bool {
			for _, u := range bs {
				sink += uint64(u)
			}
			return true
		})
	}
	_ = sink
	b.ReportMetric(float64(p.Len()*b.N)/b.Elapsed().Seconds(), "elems/s")
}
