package ria

import (
	"math/rand"
	"testing"
)

// Structure-level microbenchmarks underpinning the §2.3 analysis: RIA's
// bounded movement and two-cache-line search versus the PMA's long
// rebalances (see internal/pma's benchmarks for the counterpart numbers).

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
		r := New(1.2)
		for _, k := range ks {
			r.Insert(k)
		}
	}
	b.ReportMetric(float64(len(ks)*b.N)/b.Elapsed().Seconds(), "inserts/s")
}

func BenchmarkInsertAlpha(b *testing.B) {
	ks := randomKeys(1<<15, 2)
	for _, alpha := range []float64{1.1, 1.2, 2.0} {
		b.Run(name(alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := New(alpha)
				for _, k := range ks {
					r.Insert(k)
				}
			}
		})
	}
}

func name(alpha float64) string {
	switch alpha {
	case 1.1:
		return "alpha1.1"
	case 1.2:
		return "alpha1.2"
	default:
		return "alpha2.0"
	}
}

func BenchmarkHas(b *testing.B) {
	ks := randomKeys(1<<16, 3)
	r := New(1.2)
	for _, k := range ks {
		r.Insert(k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Has(ks[i%len(ks)])
	}
}

func BenchmarkBlocks(b *testing.B) {
	ks := randomKeys(1<<16, 4)
	r := New(1.2)
	for _, k := range ks {
		r.Insert(k)
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		r.Blocks(func(bs []uint32) bool {
			for _, u := range bs {
				sink += uint64(u)
			}
			return true
		})
	}
	_ = sink
	b.ReportMetric(float64(r.Len()*b.N)/b.Elapsed().Seconds(), "elems/s")
}
