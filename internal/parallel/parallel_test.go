package parallel

import (
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, 63, 64, 65, 1000, 100000} {
		seen := make([]int32, n)
		For(n, 0, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForSequentialFallback(t *testing.T) {
	// p=1 must run in order on the caller's goroutine.
	var got []int
	For(100, 1, func(i int) { got = append(got, i) })
	for i, v := range got {
		if v != i {
			t.Fatalf("p=1 out of order at %d: %d", i, v)
		}
	}
}

func TestForChunkDisjoint(t *testing.T) {
	n := 12345
	seen := make([]int32, n)
	ForChunkW(n, 4, func(w, lo, hi int) {
		if w < 0 || w >= 4 {
			t.Errorf("worker %d outside [0,4)", w)
		}
		if lo < 0 || hi > n || lo > hi {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

// TestForBlockedPinsWorker checks that every block runs once, on worker
// b%p.
func TestForBlockedPinsWorker(t *testing.T) {
	for _, nb := range []int{0, 1, 2, 100} {
		seen := make([]int32, nb)
		ForBlockedW(nb, 3, func(w, b int) {
			if w != b%3 {
				t.Errorf("nb=%d: block %d ran on worker %d", nb, b, w)
			}
			atomic.AddInt32(&seen[b], 1)
		})
		for b, c := range seen {
			if c != 1 {
				t.Fatalf("nb=%d: block %d visited %d times", nb, b, c)
			}
		}
	}
}

// TestOneWorkerLoopsAllocateNothing checks that ForChunkW and For at one
// worker are plain calls: the fork-join's closures and counter are never
// built, so a warm SnapshotInto or batch at one worker allocates nothing
// in them.
func TestOneWorkerLoopsAllocateNothing(t *testing.T) {
	var sum int
	chunk := func(_, lo, hi int) { sum += hi - lo }
	each := func(i int) { sum += i }
	if a := testing.AllocsPerRun(100, func() { ForChunkW(10_000, 1, chunk) }); a != 0 {
		t.Errorf("ForChunkW at one worker allocates %.0f objects", a)
	}
	if a := testing.AllocsPerRun(100, func() { For(10_000, 1, each) }); a != 0 {
		t.Errorf("For at one worker allocates %.0f objects", a)
	}
}

// TestWorkersWaitsOnPanic checks that a panic of worker 0 reaches the
// caller only after the other workers have finished.
func TestWorkersWaitsOnPanic(t *testing.T) {
	var done atomic.Bool
	release := make(chan struct{})
	defer func() {
		if recover() == nil {
			t.Fatal("worker 0's panic did not reach the caller")
		}
		if !done.Load() {
			t.Fatal("the panic reached the caller before worker 1 finished")
		}
	}()
	Workers(2, func(w int) {
		if w == 0 {
			close(release)
			panic("worker 0")
		}
		<-release
		time.Sleep(20 * time.Millisecond)
		done.Store(true)
	})
}

func TestSortUint64Small(t *testing.T) {
	ks := []uint64{5, 3, 3, 1, 9, 0}
	SortUint64(ks, 4)
	if !sort.SliceIsSorted(ks, func(i, j int) bool { return ks[i] < ks[j] }) {
		t.Fatalf("not sorted: %v", ks)
	}
}

func TestSortUint64Large(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1 << 13, 1<<15 + 17, 1 << 16} {
		ks := make([]uint64, n)
		for i := range ks {
			ks[i] = rng.Uint64()
		}
		want := append([]uint64(nil), ks...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		SortUint64(ks, 8)
		for i := range ks {
			if ks[i] != want[i] {
				t.Fatalf("n=%d mismatch at %d: got %d want %d", n, i, ks[i], want[i])
			}
		}
	}
}

func TestSortUint64Quick(t *testing.T) {
	f := func(ks []uint64) bool {
		SortUint64(ks, 4)
		return sort.SliceIsSorted(ks, func(i, j int) bool { return ks[i] < ks[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
