package serve

import (
	"fmt"
	"testing"

	"lsgraph/internal/core"
	"lsgraph/internal/gen"
	"lsgraph/internal/wal"
)

// benchIngest drives the shared ingest loop of the durability-overhead
// pair below: one producer, same Zipf batch reused, throughput in raw
// edge bytes per second.
func benchIngest(b *testing.B, st *Store) {
	b.Helper()
	defer st.Close()
	z := gen.NewZipf(8192, 1.0, 7)
	src, dst := z.Batch(8192)
	b.SetBytes(8192 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.InsertBatch(src, dst)
	}
	st.Flush()
}

// BenchmarkIngestWALNone measures ingest with the WAL on at FsyncNone —
// against BenchmarkIngestMemOnly it isolates the per-batch logging tax
// (encode + CRC + write syscall) with no fsync in the picture.
func BenchmarkIngestWALNone(b *testing.B) {
	st, err := OpenDurable(8192, core.Config{Shards: 2}, Options{},
		DurabilityOptions{Dir: b.TempDir(), Fsync: wal.FsyncNone})
	if err != nil {
		b.Fatal(err)
	}
	benchIngest(b, st)
}

// BenchmarkIngestMemOnly is the WAL-free baseline for
// BenchmarkIngestWALNone (shards=2), and at shards=1 the only measurement of
// enqueue over a one-range map, which no ruler workload runs.
func BenchmarkIngestMemOnly(b *testing.B) {
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchIngest(b, New(core.New(8192, core.Config{Shards: shards}), Options{}))
		})
	}
}
