package serve

import (
	"sync"
	"testing"

	"lsgraph/internal/algo"
	"lsgraph/internal/core"
)

// TestConcurrentWriterReaders is the serving layer's consistency stress
// test: one goroutine streams insert batches while N readers repeatedly
// pin views and check epoch-level invariants, with BFS and CC runs mixed
// in for kernel coverage. Designed to run under -race (make verify).
//
// The workload makes consistency checkable: batch k inserts exactly the
// symmetric pair (2k, 2k+1), so a consistent snapshot must satisfy, for
// every epoch: NumEdges == 2*K for some K <= batches applied, each vertex
// 2j / 2j+1 with j < K has degree exactly 1, and the two endpoints of a
// pair are each other's single neighbor. A torn or half-applied batch
// would break one of these.
func TestConcurrentWriterReaders(t *testing.T) {
	const (
		batches = 400
		readers = 4
	)
	n := uint32(2 * batches)
	st := New(core.NewPaged(n, 1, 2), Options{})

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
					fail("odd edge count: torn batch visible")
				}
				if epoch < lastEpoch || m < lastEdges {
					fail("epoch or edge count went backwards")
				}
				lastEpoch, lastEdges = epoch, m
				// Every applied pair must be fully present: both
				// endpoints degree 1, pointing at each other.
				k := uint32(m / 2)
				for j := uint32(0); j < k; j++ {
					a, b := 2*j, 2*j+1
					if v.Degree(a) != 1 || v.Degree(b) != 1 {
						fail("half-applied pair: bad degree")
						break
					}
					if v.Neighbors(a)[0] != b || v.Neighbors(b)[0] != a {
						fail("half-applied pair: bad adjacency")
						break
					}
				}
				// Periodically run real kernels on the pinned view.
				if i%16 == r {
					labels := algo.CC(v, 2)
					for j := uint32(0); j < k; j++ {
						if labels[2*j] != labels[2*j+1] {
							fail("CC split a pair within one epoch")
							break
						}
					}
					if k > 0 {
						parent := algo.BFS(v, 0, 2)
						if v.Degree(0) == 1 && parent[1] == -1 {
							fail("BFS missed vertex 1 despite edge (0,1)")
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
	if stats.BatchesApplied == 0 || stats.BatchesApplied > batches {
		t.Fatalf("batches applied %d out of range (0, %d]", stats.BatchesApplied, batches)
	}
	st.Close()

	// Views outlive Close.
	v := st.View()
	if v.NumEdges() != 2*batches {
		t.Fatal("post-close view inconsistent")
	}
	v.Release()
}
