package serve

import (
	"math/rand"
	"sync"
	"testing"

	"lsgraph/internal/algo"
	"lsgraph/internal/core"
	"lsgraph/internal/gen"
	"lsgraph/internal/refgraph"
)

// checkViewAgainstRef compares a pinned composed view against the oracle:
// edge count, every vertex's full sorted adjacency, and the invariant that
// no neighbor ID escapes the view's vertex bound.
func checkViewAgainstRef(t *testing.T, v *View, ref *refgraph.Graph) {
	t.Helper()
	if v.NumEdges() != ref.NumEdges() {
		t.Fatalf("view m=%d, oracle m=%d", v.NumEdges(), ref.NumEdges())
	}
	// The oracle's slot count may exceed the view's bound (the Store only
	// grows to cover referenced IDs); Neighbors past the bound is empty,
	// which the comparison below verifies matches the oracle.
	for u := uint32(0); u < ref.NumVertices(); u++ {
		got, want := v.Neighbors(u), ref.Neighbors(u)
		if len(got) != len(want) {
			t.Fatalf("v=%d: %d neighbors, oracle %d", u, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("v=%d neighbor %d: got %d want %d", u, i, got[i], want[i])
			}
			if got[i] >= v.NumVertices() {
				t.Fatalf("v=%d: neighbor %d beyond view bound %d", u, got[i], v.NumVertices())
			}
		}
	}
}

func TestShardedStoreBasic(t *testing.T) {
	st := New(core.NewPaged(64, 4, 2), Options{})
	defer st.Close()

	if st.Shards() != 4 {
		t.Fatalf("Shards()=%d, want 4", st.Shards())
	}
	if st.Epoch() != 0 || st.NumEdges() != 0 {
		t.Fatalf("initial state: epoch=%d m=%d", st.Epoch(), st.NumEdges())
	}

	// One batch spanning all four shards (span=16): sources 1, 17, 33, 49.
	src := []uint32{1, 17, 33, 49}
	dst := []uint32{2, 18, 34, 50}
	st.InsertBatch(src, dst)
	st.Flush()

	if st.NumEdges() != 4 {
		t.Fatalf("after flush m=%d, want 4", st.NumEdges())
	}
	// One batch applied, however many shards it touched.
	if st.Epoch() != 1 || st.Stats().SnapshotsPublished != 4+4 {
		t.Fatalf("epoch=%d with %d shard snapshots published, want 1 and 8", st.Epoch(), st.Stats().SnapshotsPublished)
	}

	v := st.View()
	for i := range src {
		if v.Degree(src[i]) != 1 {
			t.Fatalf("deg(%d)=%d, want 1", src[i], v.Degree(src[i]))
		}
		if ns := v.Neighbors(src[i]); len(ns) != 1 || ns[0] != dst[i] {
			t.Fatalf("neighbors(%d)=%v, want [%d]", src[i], ns, dst[i])
		}
	}
	// The view stays frozen while the store moves on.
	st.DeleteBatch(src, dst)
	st.Flush()
	if v.NumEdges() != 4 {
		t.Fatalf("pinned view changed: m=%d", v.NumEdges())
	}
	if st.NumEdges() != 0 {
		t.Fatalf("store m=%d after delete, want 0", st.NumEdges())
	}
	v.Release()
}

// TestShardedStoreMatchesOracle streams random interleaved insert/delete
// batches through a 4-shard Store and checks the composed view against the
// reference graph after every flush — the sharded serving layer's
// differential test, designed to also run under -race (make verify).
func TestShardedStoreMatchesOracle(t *testing.T) {
	const nv = 1 << 10
	st := New(core.NewPaged(nv, 4, 4), Options{})
	defer st.Close()
	ref := refgraph.New(nv)
	rm := gen.NewRMatPaper(10, 42)
	rng := rand.New(rand.NewSource(42))

	var liveSrc, liveDst []uint32
	for round := 0; round < 8; round++ {
		es := rm.Edges(4000)
		src := make([]uint32, len(es))
		dst := make([]uint32, len(es))
		for i, e := range es {
			src[i], dst[i] = e.Src, e.Dst
			ref.Insert(e.Src, e.Dst)
		}
		st.InsertBatch(src, dst)
		liveSrc = append(liveSrc, src...)
		liveDst = append(liveDst, dst...)

		// Delete a random third of everything ever inserted; duplicates in
		// the delete batch and deletes of already-absent edges are part of
		// the point.
		dn := len(liveSrc) / 3
		dsrc := make([]uint32, dn)
		ddst := make([]uint32, dn)
		for i := 0; i < dn; i++ {
			j := rng.Intn(len(liveSrc))
			dsrc[i], ddst[i] = liveSrc[j], liveDst[j]
			ref.Delete(liveSrc[j], liveDst[j])
		}
		st.DeleteBatch(dsrc, ddst)

		st.Flush()
		v := st.View()
		checkViewAgainstRef(t, v, ref)
		v.Release()
	}
}

// TestShardedStoreAutoGrow streams edges over an ever-growing vertex ID
// range with no explicit EnsureVertices call: enqueue reserves the bound
// and the writer materializes each touched shard's storage before applying. The
// graph starts at 8 vertices and ends three orders of magnitude larger.
func TestShardedStoreAutoGrow(t *testing.T) {
	st := New(core.NewPaged(8, 4, 2), Options{})
	defer st.Close()
	ref := refgraph.New(8)
	rng := rand.New(rand.NewSource(7))

	bound := 8
	var maxID uint32
	for round := 0; round < 25; round++ {
		bound += 7 + rng.Intn(400)
		ref.EnsureVertices(uint32(bound))
		src := make([]uint32, 300)
		dst := make([]uint32, 300)
		for i := range src {
			src[i] = uint32(rng.Intn(bound))
			dst[i] = uint32(rng.Intn(bound))
			if src[i] > maxID {
				maxID = src[i]
			}
			if dst[i] > maxID {
				maxID = dst[i]
			}
			ref.Insert(src[i], dst[i])
		}
		st.InsertBatch(src, dst)
		if round%5 == 4 {
			st.Flush()
			if st.NumVertices() <= maxID {
				t.Fatalf("round %d: store nv=%d does not cover max referenced ID %d",
					round, st.NumVertices(), maxID)
			}
			v := st.View()
			checkViewAgainstRef(t, v, ref)
			v.Release()
		}
	}
	st.Flush()
	v := st.View()
	checkViewAgainstRef(t, v, ref)
	v.Release()
}

// TestShardedConcurrentWriterReaders is the stress test at Shards=4: one
// goroutine streams pair batches while readers pin views. What a view must
// provide is per-pair atomicity (each pair's two symmetric edges land in
// one batch, whose epoch holds all of it), epoch/edge monotonicity, and
// kernel-visible consistency. Designed to run under -race.
func TestShardedConcurrentWriterReaders(t *testing.T) {
	const (
		batches = 300
		readers = 4
	)
	n := uint32(2 * batches) // span = n/4 = 150... even, so pairs never straddle shards
	st := New(core.NewPaged(n, 4, 2), Options{})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	fail := func(msg string) {
		select {
		case errs <- msg:
		default:
		}
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastEpoch, lastEdges uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := st.View()
				m, epoch := v.NumEdges(), v.Epoch()
				if m%2 != 0 {
					fail("odd edge count: torn pair visible across the composed view")
				}
				if epoch < lastEpoch || m < lastEdges {
					fail("composed epoch or edge count went backwards")
				}
				lastEpoch, lastEdges = epoch, m
				// Pair atomicity: both endpoints degree 1 and mutually
				// adjacent, or both absent. No prefix assumption.
				for j := uint32(0); j < batches; j++ {
					a, b := 2*j, 2*j+1
					da, db := v.Degree(a), v.Degree(b)
					if da != db {
						fail("half-applied pair: asymmetric degrees")
						break
					}
					if da == 1 && (v.Neighbors(a)[0] != b || v.Neighbors(b)[0] != a) {
						fail("half-applied pair: bad adjacency")
						break
					}
				}
				if i%16 == r {
					labels := algo.CC(v, 2)
					for j := uint32(0); j < batches; j++ {
						if v.Degree(2*j) == 1 && labels[2*j] != labels[2*j+1] {
							fail("CC split a pair within one composed view")
							break
						}
					}
				}
				v.Release()
			}
		}(r)
	}

	for k := uint32(0); k < batches; k++ {
		src, dst := pairBatch(2*k, 2*k+1)
		st.InsertBatch(src, dst)
	}
	st.Flush()
	close(stop)
	wg.Wait()

	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}

	if got, want := st.NumEdges(), uint64(2*batches); got != want {
		t.Fatalf("final edge count %d, want %d", got, want)
	}
	stats := st.Stats()
	if stats.EdgesEnqueued != 2*batches {
		t.Fatalf("edges enqueued %d, want %d", stats.EdgesEnqueued, 2*batches)
	}
	st.Close()

	// Views outlive Close.
	v := st.View()
	if v.NumEdges() != 2*batches {
		t.Fatal("post-close view inconsistent")
	}
	v.Release()
}
