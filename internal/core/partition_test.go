package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// lcg is a tiny deterministic generator for test edges.
type lcg uint64

func (r *lcg) next() uint32 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint32(*r >> 33)
}

func TestPartitionMapShardOf(t *testing.T) {
	for _, s := range []int{1, 2, 3, 4, 8} {
		pm := NewUniformMap(100, s)
		if len(pm.Starts) != s || pm.Starts[0] != 0 {
			t.Fatalf("S=%d: starts %v", s, pm.Starts)
		}
		for v := uint32(0); v < 120; v++ {
			i := pm.ShardOf(v)
			if i < 0 || i >= s {
				t.Fatalf("S=%d: ShardOf(%d) = %d out of range", s, v, i)
			}
			if v < pm.Starts[i] {
				t.Fatalf("S=%d: ShardOf(%d) = %d but start is %d", s, v, i, pm.Starts[i])
			}
			if i+1 < s && v >= pm.Starts[i+1] {
				t.Fatalf("S=%d: ShardOf(%d) = %d but next start is %d", s, v, i, pm.Starts[i+1])
			}
		}
	}
}

// TestMoveBoundaryDifferential moves the boundaries of a four-shard paged
// graph down, up, to minimal shards and back, and after every move, and
// after an update through the moved layout, reads every shard back through
// Publish against the one-range oracle.
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

// TestMoveBoundaryErrors: a move to the current boundary is ErrNoMove, and
// one that would empty a shard or names no boundary is refused; none of them
// changes a shard's range.
func TestMoveBoundaryErrors(t *testing.T) {
	g := NewPaged(100, 4, 1)
	was := ranges(g)
	if _, _, err := g.MoveBoundary(0, g.Shard(1).Base()); !errors.Is(err, ErrNoMove) {
		t.Fatalf("no-op move: err = %v, want ErrNoMove", err)
	}
	if _, _, err := g.MoveBoundary(0, 0); err == nil {
		t.Fatal("emptying shard 0 succeeded")
	}
	if _, _, err := g.MoveBoundary(0, g.Shard(2).Base()); err == nil {
		t.Fatal("emptying shard 1 succeeded")
	}
	if _, _, err := g.MoveBoundary(3, 80); err == nil {
		t.Fatal("out-of-range boundary succeeded")
	}
	if _, _, err := g.MoveBoundary(-1, 10); err == nil {
		t.Fatal("negative boundary succeeded")
	}
	if got := ranges(g); !slices.Equal(got, was) {
		t.Fatalf("failed moves changed the shard ranges %v to %v", was, got)
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
