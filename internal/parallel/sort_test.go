package parallel

import (
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
)

// sortInputs generates one input per distribution shape the radix paths
// care about: uniform random, power-law-skewed low keys (rMat vertex IDs),
// all-equal, already sorted, reversed, heavy duplicates, a narrow key
// range that leaves most MSD digits empty, equal high bytes, every key but
// one in one digit, and fewer non-empty digits than workers.
func sortInputs(rng *rand.Rand, n int) map[string][]uint64 {
	in := map[string][]uint64{}
	u := make([]uint64, n)
	for i := range u {
		u[i] = rng.Uint64()
	}
	in["uniform"] = u

	skew := make([]uint64, n)
	for i := range skew {
		// Cluster toward zero like rMat source IDs packed high.
		skew[i] = uint64(rng.ExpFloat64()*float64(n)) << 32
	}
	in["skewed"] = skew

	eq := make([]uint64, n)
	for i := range eq {
		eq[i] = 0xdeadbeef
	}
	in["all-equal"] = eq

	sorted := make([]uint64, n)
	for i := range sorted {
		sorted[i] = uint64(i) * 3
	}
	in["sorted"] = sorted

	rev := make([]uint64, n)
	for i := range rev {
		rev[i] = uint64(n - i)
	}
	in["reversed"] = rev

	dup := make([]uint64, n)
	for i := range dup {
		dup[i] = uint64(rng.Intn(16))
	}
	in["duplicates"] = dup

	narrow := make([]uint64, n)
	for i := range narrow {
		narrow[i] = 1<<40 + uint64(rng.Intn(512))
	}
	in["narrow"] = narrow

	high := make([]uint64, n)
	for i := range high {
		high[i] = 7<<24 | uint64(rng.Intn(1<<24))
	}
	in["equal-high-bytes"] = high

	// The digit starts at the top varying bit, so at least two digits are
	// non-empty; here the last key alone sets that bit and all others
	// share digit 0, which one worker sorts by itself.
	one := make([]uint64, n)
	for i := range one {
		one[i] = uint64(rng.Intn(1 << 20))
	}
	if n > 0 {
		one[n-1] = 1 << 40
	}
	in["one-digit"] = one

	few := make([]uint64, n)
	for i := range few {
		few[i] = uint64(rng.Intn(3))<<40 | uint64(rng.Intn(1<<20))
	}
	in["few-digits"] = few
	return in
}

// TestSortUint64MatchesStdlib is the property test of the satellite task:
// every size regime (stdlib, sequential radix, parallel MSD) times every
// parallelism times every distribution must match sort.Slice exactly.
func TestSortUint64MatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{0, 1, 2, 33, seqSortMin - 1, seqSortMin, parSortMin - 1,
		parSortMin, parSortMin + 4097, 1 << 17}
	for _, n := range sizes {
		for dist, base := range sortInputs(rng, n) {
			want := append([]uint64(nil), base...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			for _, p := range []int{1, 2, 4, 8} {
				got := append([]uint64(nil), base...)
				SortUint64(got, p)
				if i := mismatch(got, want); i >= 0 {
					t.Fatalf("n=%d dist=%s p=%d: mismatch at %d: got %d want %d",
						n, dist, p, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSortUint64ParallelPathDirect drives SortUint64's parallel path at
// exactly the size where each worker count first gets it, p keys of
// parSortChunkMin each.
func TestSortUint64ParallelPathDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, p := range []int{2, 3, 8} {
		for dist, base := range sortInputs(rng, p*parSortChunkMin) {
			want := append([]uint64(nil), base...)
			slices.Sort(want)
			got := append([]uint64(nil), base...)
			SortUint64(got, p)
			if i := mismatch(got, want); i >= 0 {
				t.Fatalf("dist=%s p=%d: mismatch at %d: got %d want %d",
					dist, p, i, got[i], want[i])
			}
		}
	}
}

// mismatch returns the first index where got and want differ, or -1.
func mismatch(got, want []uint64) int {
	for i := range got {
		if got[i] != want[i] {
			return i
		}
	}
	return -1
}

// TestSortSeqMatchesStdlib covers SortSeq's three regimes by length, with
// the exact mask of varying bits, a mask with spare bits, and no knowledge.
func TestSortSeqMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{0, 1, 2, insertionSortMax, insertionSortMax + 1, seqRadixMin - 1, seqRadixMin, 1000, 5000} {
		for dist, in := range sortInputs(rng, n) {
			or, and := uint64(0), ^uint64(0)
			for _, k := range in {
				or |= k
				and &= k
			}
			for _, varying := range []uint64{or ^ and, or ^ and | 0xff<<40, ^uint64(0)} {
				got := append([]uint64(nil), in...)
				SortSeq(got, make([]uint64, n), varying)
				want := append([]uint64(nil), in...)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("dist=%s n=%d varying=%#x: not sorted like the stdlib", dist, n, varying)
				}
			}
		}
	}
}

// TestWorkersRunsEachIndexOnce checks the fork-join: every worker index in
// [0, p) runs exactly once, worker 0 on the calling goroutine's stack.
func TestWorkersRunsEachIndexOnce(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8} {
		seen := make([]int32, p)
		Workers(p, func(w int) { atomic.AddInt32(&seen[w], 1) })
		for w, c := range seen {
			if c != 1 {
				t.Fatalf("p=%d: worker %d ran %d times", p, w, c)
			}
		}
	}
	ran := false
	Workers(0, func(w int) { ran = w == 0 })
	if !ran {
		t.Fatal("p=0 did not run worker 0 inline")
	}
}
