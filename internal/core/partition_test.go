package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
)

// lcg is a tiny deterministic generator for test edges.
type lcg uint64

func (r *lcg) next() uint32 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint32(*r >> 33)
}

// shardOfLinear is ShardOf's oracle: the last of the ascending starts at or
// below v, found by a scan.
func shardOfLinear(starts []uint32, v uint32) int {
	i := 0
	for k, s := range starts {
		if s <= v {
			i = k
		}
	}
	return i
}

// testMaps returns, for S shards, the uniform maps over a small and a large
// vertex space and maps whose boundaries were moved, each inside the window
// that keeps every range non-empty, one of them with its last boundary at
// 2³²−1.
func testMaps(S int, r *lcg) []*PartitionMap {
	pms := []*PartitionMap{{Starts: uniformStarts(uint32(2*S), S)}, {Starts: uniformStarts(1<<20, S)}}
	if S == 1 {
		return pms
	}
	moveTo := func(pm *PartitionMap, k int, newStart uint32) *PartitionMap {
		next := &PartitionMap{Starts: slices.Clone(pm.Starts)}
		next.Starts[k+1] = newStart
		return next
	}
	last := moveTo(pms[1], S-2, math.MaxUint32)
	moved := pms[1]
	for i := 0; i < 4*S; i++ {
		k := int(r.next()) % (S - 1)
		lo, hi := uint64(moved.Starts[k])+1, uint64(1)<<32
		if k+2 < S {
			hi = uint64(moved.Starts[k+2])
		}
		moved = moveTo(moved, k, uint32(lo+uint64(r.next())%(hi-lo)))
	}
	return append(pms, last, moved)
}

// TestPartitionMapShardOf checks ShardOf against a linear scan on uniform
// and moved maps of 1 to 33 shards, probing 0, every start and its two
// neighbors, and 2³²−1.
func TestPartitionMapShardOf(t *testing.T) {
	r := lcg(3)
	for S := 1; S <= 33; S++ {
		for _, pm := range testMaps(S, &r) {
			if len(pm.Starts) != S || pm.Starts[0] != 0 {
				t.Fatalf("S=%d: starts %v", S, pm.Starts)
			}
			probes := []uint32{0, math.MaxUint32}
			for _, st := range pm.Starts {
				probes = append(probes, st-1, st, st+1)
			}
			for _, v := range probes {
				if got, want := pm.ShardOf(v), shardOfLinear(pm.Starts, v); got != want {
					t.Fatalf("S=%d starts %v: ShardOf(%d) = %d, want %d", S, pm.Starts, v, got, want)
				}
			}
		}
	}
}

// TestBelowMatchesLinearScan checks the search findKeys probes a run with
// against a count of the entries below x, on ascending runs of 0 to 40
// entries — every other one full of repeats, which a search that stepped
// past an entry equal to x would miscount — probing every entry and its two
// neighbors, 0 and 2³².
func TestBelowMatchesLinearScan(t *testing.T) {
	r := lcg(5)
	for n := 0; n <= 40; n++ {
		a := make([]uint32, n)
		for i := range a {
			if a[i] = r.next(); n%2 == 1 {
				a[i] %= 9
			}
		}
		if n > 2 {
			a[0], a[1] = 0, math.MaxUint32
		}
		slices.Sort(a)
		probes := []uint64{0, 1 << 32}
		for _, e := range a {
			probes = append(probes, uint64(e)-1, uint64(e), uint64(e)+1)
		}
		for _, x := range probes {
			if x > 1<<32 {
				continue // 0-1
			}
			want := 0
			for _, e := range a {
				if uint64(e) < x {
					want++
				}
			}
			if got := below(a, x); got != want {
				t.Fatalf("below(%v, %d) = %d, want %d", a, x, got, want)
			}
		}
	}
}

// checkScatter scatters src/dst by pm on p workers and checks the result
// against the linear oracle: every part holds exactly its shard's edges in
// input order, the bound is one past the largest ID, and each part's
// capacity is pinned to its length.
func checkScatter(t testing.TB, pm *PartitionMap, src, dst []uint32, p int) []SubBatch {
	t.Helper()
	parts, bound := Scatter(pm.Starts, src, dst, p)
	if len(parts) != len(pm.Starts) {
		t.Fatalf("%d parts for %d shards", len(parts), len(pm.Starts))
	}
	var want uint64
	cursors := make([]int, len(parts))
	for i := range src {
		want = max(want, uint64(src[i])+1, uint64(dst[i])+1)
		k := shardOfLinear(pm.Starts, src[i])
		j := cursors[k]
		cursors[k]++
		if j >= len(parts[k].Src) || parts[k].Src[j] != src[i] || parts[k].Dst[j] != dst[i] {
			t.Fatalf("starts %v p=%d: edge %d (%d,%d) is not next in part %d", pm.Starts, p, i, src[i], dst[i], k)
		}
	}
	if bound != want {
		t.Fatalf("starts %v p=%d: bound %d, want %d", pm.Starts, p, bound, want)
	}
	for k, part := range parts {
		if len(part.Src) != cursors[k] || len(part.Dst) != cursors[k] {
			t.Fatalf("starts %v p=%d: part %d holds %d/%d edges, want %d", pm.Starts, p, k, len(part.Src), len(part.Dst), cursors[k])
		}
		if cap(part.Src) != len(part.Src) || cap(part.Dst) != len(part.Dst) {
			t.Fatalf("starts %v p=%d: part %d capacity not pinned", pm.Starts, p, k)
		}
	}
	return parts
}

// randomEdges returns n edges whose sources are spread over the whole ID
// space, a quarter of them a start of pm or one of its neighbors.
func randomEdges(pm *PartitionMap, n int, r *lcg) (src, dst []uint32) {
	src, dst = make([]uint32, n), make([]uint32, n)
	for i := range src {
		src[i], dst[i] = r.next()<<1^r.next(), r.next()%(1<<12)
		if r.next()%4 == 0 {
			src[i] = pm.Starts[int(r.next())%len(pm.Starts)] + r.next()%3 - 1
		}
	}
	return src, dst
}

// TestScatterBatchRoutesBySource scatters batches on one worker and below
// parPrepMin edges (the inline passes) and above it on 2, 3 and 8 workers,
// by uniform and moved maps, and checks them against the linear oracle.
func TestScatterBatchRoutesBySource(t *testing.T) {
	r := lcg(11)
	for _, S := range []int{1, 2, 3, 4, 16} {
		for _, pm := range testMaps(S, &r) {
			for _, n := range []int{0, 1, 100, parPrepMin - 1, parPrepMin, 3 * parPrepMin} {
				src, dst := randomEdges(pm, n, &r)
				for _, p := range []int{1, 2, 3, 8} {
					checkScatter(t, pm, src, dst, p)
				}
			}
		}
	}
}

// TestScatterBatchRetainedPartAppend verifies the retention contract:
// appending to one returned part (what serve's backpressure merge does to
// queued parts) must never alter a sibling part, on both the sequential
// and the parallel scatter paths.
func TestScatterBatchRetainedPartAppend(t *testing.T) {
	r := lcg(13)
	for _, pm := range testMaps(4, &r) {
		for _, n := range []int{64, 3 * parPrepMin} {
			src, dst := randomEdges(pm, n, &r)
			for _, p := range []int{1, 2, 3, 8} {
				parts := checkScatter(t, pm, src, dst, p)
				wantSrc := make([][]uint32, len(parts))
				wantDst := make([][]uint32, len(parts))
				for i, part := range parts {
					wantSrc[i] = slices.Clone(part.Src)
					wantDst[i] = slices.Clone(part.Dst)
				}
				for i := range parts {
					parts[i].Src = append(parts[i].Src, 0xdeadbeef, 0xdeadbeef)
					parts[i].Dst = append(parts[i].Dst, 0xdeadbeef, 0xdeadbeef)
				}
				for i := range parts {
					if !slices.Equal(parts[i].Src[:len(wantSrc[i])], wantSrc[i]) || !slices.Equal(parts[i].Dst[:len(wantDst[i])], wantDst[i]) {
						t.Fatalf("n=%d p=%d: append to a sibling corrupted part %d", n, p, i)
					}
				}
			}
		}
	}
}

// FuzzScatter checks Scatter against the linear oracle on random strictly
// increasing starts: 1 to 33 shards, 1 to 8 workers, the batch's edges
// from data (eight bytes each) and, past its end, up to n more from the
// seed, so the parallel passes run too.
func FuzzScatter(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(1), uint16(0), []byte{})
	f.Add(int64(2), uint8(2), uint8(2), uint16(parPrepMin), []byte{0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0})
	f.Add(int64(3), uint8(32), uint8(3), uint16(3*parPrepMin), []byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, seed int64, shards, workers uint8, n uint16, data []byte) {
		r := lcg(seed)
		starts := []uint32{0}
		for i := 0; i < int(shards)%33; i++ {
			starts = append(starts, r.next()<<1^r.next())
		}
		slices.Sort(starts)
		pm := &PartitionMap{Starts: slices.Compact(starts)}
		src, dst := randomEdges(pm, len(data)/8+int(n), &r)
		for i := 0; i+8 <= len(data); i += 8 {
			src[i/8] = binary.LittleEndian.Uint32(data[i:])
			dst[i/8] = binary.LittleEndian.Uint32(data[i+4:])
		}
		checkScatter(t, pm, src, dst, 1+int(workers)%8)
	})
}

// TestMoveBoundaryDifferential moves the boundaries of a four-shard paged
// graph down, up, to minimal shards and back, one at a time and then all at
// once, and after every re-cut, and after an update through the moved
// layout, reads every shard back through Publish against the one-range
// oracle.
func TestMoveBoundaryDifferential(t *testing.T) {
	const n = 200
	r := lcg(7)
	var src, dst []uint32
	for i := 0; i < 3000; i++ {
		src = append(src, r.next()%n)
		dst = append(dst, r.next()%n)
	}
	tw := newTwin(n, 4, Config{Workers: 2})
	tw.insert(src, dst)
	check := func(step string) {
		t.Helper()
		if err := tw.check(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}

	moves := []struct {
		k        int
		newStart uint32
	}{
		{0, 10},  // shrink shard 0 (boundary moves down)
		{0, 90},  // grow shard 0 (boundary moves up past old spans)
		{1, 95},  // nudge
		{2, 140}, // shrink shard 2
		{2, 199}, // nearly everything into shard 2
		{0, 1},   // minimal shard 0
		{1, 2},   // minimal shard 1
		{2, 3},   // minimal shard 2 → shard 3 owns almost all
		{2, 150}, // back toward uniform, rightmost boundary first
		{1, 100}, //
		{0, 50},  //
	}
	for _, mv := range moves {
		want := ranges(tw.g)
		want[mv.k][1], want[mv.k+1][0] = uint64(mv.newStart), uint64(mv.newStart)
		if err := tw.move(mv.k, mv.newStart); err != nil {
			t.Fatal(err)
		}
		if got := ranges(tw.g); !slices.Equal(got, want) {
			t.Fatalf("MoveBoundary(%d,%d): shard ranges %v, want %v", mv.k, mv.newStart, got, want)
		}
		check(fmt.Sprintf("after MoveBoundary(%d,%d)", mv.k, mv.newStart))
		// Updates must still work against the moved layout.
		v, u := mv.newStart%n, (mv.newStart+7)%n
		if !tw.ref.Has(v, u) {
			tw.insert([]uint32{v}, []uint32{u})
			check("after an insert")
			tw.delete([]uint32{v}, []uint32{u})
		}
		check("after churn")
	}
	// Re-cuts of every boundary at once: each run whose owner changes moves
	// once, straight to its new shard, also past the shards between.
	for _, starts := range [][]uint32{
		{0, 150, 160, 170}, // shard 0 takes what shards 1 and 2 held
		{0, 1, 2, 3},       // shard 3 takes everything but three vertices
		{0, 40, 45, 190},   // all three boundaries at once, both ways
		{0, 50, 100, 150},  // back to uniform
	} {
		if err := tw.recut(starts); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after Recut(%v)", starts))
	}
}

// ranges lists the paged graph's shard ranges [Base, End).
func ranges(g *Paged) [][2]uint64 {
	r := make([][2]uint64, g.NumShards())
	for i := range r {
		sh := g.Shard(i)
		r[i] = [2]uint64{uint64(sh.Base()), sh.End()}
	}
	return r
}

// TestMoveBoundaryErrors: a re-cut to the current ranges is ErrNoMove, and
// one whose vector is not a range per shard starting at 0 and strictly
// ascending — a move that would empty a shard — is refused; none of them
// changes a shard's range.
func TestMoveBoundaryErrors(t *testing.T) {
	g := NewPaged(100, 4, 1)
	was := ranges(g)
	if _, _, err := g.Recut(g.starts()); !errors.Is(err, ErrNoMove) {
		t.Fatalf("no-op re-cut: err = %v, want ErrNoMove", err)
	}
	for _, starts := range [][]uint32{
		{0, 0, 50, 75},      // empties shard 0
		{0, 50, 50, 75},     // empties shard 1
		{0, 60, 50, 75},     // descends
		{1, 25, 50, 75},     // does not start at 0
		{0, 25, 50},         // too few starts
		{0, 25, 50, 75, 90}, // too many
	} {
		if _, _, err := g.Recut(starts); err == nil || errors.Is(err, ErrNoMove) {
			t.Fatalf("Recut(%v): err = %v, want a refusal", starts, err)
		}
	}
	if got := ranges(g); !slices.Equal(got, was) {
		t.Fatalf("failed re-cuts changed the shard ranges %v to %v", was, got)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMoveBoundaryLazyMaterialization moves a boundary across vertices that
// are reserved but not materialized: up past the last shard's storage, down
// and up again with nothing materialized on either side, and back down into
// the materialized range, then grows into the moved layout.
func TestMoveBoundaryLazyMaterialization(t *testing.T) {
	tw := newTwin(40, 4, Config{Workers: 1})
	tw.insert([]uint32{1, 12, 25, 38}, []uint32{2, 13, 26, 39})
	tw.g.ReserveVertices(400) // logical growth, storage untouched
	tw.ref.EnsureVertices(400)
	for _, to := range []uint32{350, 300, 320, 21} {
		if err := tw.move(2, to); err != nil {
			t.Fatalf("move to %d: %v", to, err)
		}
		if err := tw.check(); err != nil {
			t.Fatalf("after the move to %d: %v", to, err)
		}
	}
	tw.ensure(400)
	tw.insert([]uint32{390, 25, 22}, []uint32{1, 3, 399})
	if err := tw.check(); err != nil {
		t.Fatalf("after growth: %v", err)
	}
}
