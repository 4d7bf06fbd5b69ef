package hitree

import (
	"math/rand"
	"testing"
)

// Microbenchmarks for the HITree: learned-index routing versus the
// binary-searched ablation, and bulk load cost (the batch updater's
// rebuild path).

func randomKeys(n int, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	ks := make([]uint32, n)
	for i := range ks {
		ks[i] = rng.Uint32()
	}
	return ks
}

func sortedKeys(n int) []uint32 {
	ks := make([]uint32, n)
	for i := range ks {
		ks[i] = uint32(i) * 57
	}
	return ks
}

func BenchmarkInsertRandom(b *testing.B) {
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"learned", DefaultConfig()},
		{"bsearch", Config{DisableModel: true}},
	} {
		ks := randomKeys(1<<16, 1)
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t := New(mode.cfg)
				for _, k := range ks {
					t.Insert(k)
				}
			}
			b.ReportMetric(float64(len(ks)*b.N)/b.Elapsed().Seconds(), "inserts/s")
		})
	}
}

func BenchmarkBulkLoad(b *testing.B) {
	ks := sortedKeys(1 << 17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BulkLoad(ks, DefaultConfig())
	}
	b.ReportMetric(float64(len(ks)*b.N)/b.Elapsed().Seconds(), "elems/s")
}

func BenchmarkHas(b *testing.B) {
	ks := randomKeys(1<<16, 3)
	t := New(DefaultConfig())
	for _, k := range ks {
		t.Insert(k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Has(ks[i%len(ks)])
	}
}

func BenchmarkBlocks(b *testing.B) {
	ks := randomKeys(1<<16, 4)
	t := New(DefaultConfig())
	for _, k := range ks {
		t.Insert(k)
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		t.Blocks(func(bs []uint32) bool {
			for _, u := range bs {
				sink += uint64(u)
			}
			return true
		})
	}
	_ = sink
	b.ReportMetric(float64(t.Len()*b.N)/b.Elapsed().Seconds(), "elems/s")
}
