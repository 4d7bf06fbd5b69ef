package core

import (
	"fmt"
	"slices"
	"testing"

	"lsgraph/internal/engine"
	"lsgraph/internal/refgraph"
)

// FuzzPublishRecycle drives one shard's publish path with a program of
// insert batches, delete batches, publishes, holds and out-of-order
// recycles, and checks every snapshot — the latest at each publish, a held
// one at the last moment it is valid, through NeighborBlocks with
// engine.CheckBlocks — against what the refgraph oracle read when that
// snapshot was published. Batches name a few vertices and give each
// hundreds to thousands of neighbors, so a program of a few dozen ops
// fills, cleans, retires and reuses pages.
//
// Encoding, one op per 4 bytes {op, a, b, c}: op%8 = 0..2 insert, 3..4
// delete (vertex a%fuzzVerts, 16·(b+1) neighbors striding from c), 5 hold
// the latest snapshot, 6 recycle held snapshot a%len(held), 7 a second
// batch before the next publish.
func FuzzPublishRecycle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 255, 3, 5, 0, 0, 0, 3, 1, 40, 3, 6, 0, 0, 0})
	var churn []byte
	for i := byte(0); i < 120; i++ {
		churn = append(churn, i%5, i*7, 200+i%50, i*13)
		if i%4 == 1 {
			churn = append(churn, 5, 0, 0, 0)
		}
		if i%7 == 6 {
			churn = append(churn, 6, i, 0, 0)
		}
	}
	f.Add(churn)
	f.Fuzz(func(t *testing.T, prog []byte) {
		if _, err := runPublishProgram(prog); err != nil {
			t.Fatal(err)
		}
	})
}

const (
	fuzzVerts = 24
	fuzzSpace = 1 << 13 // neighbor IDs; one vertex can hold half a page
)

// heldSnap is a snapshot with a copy of what the oracle held when it was
// published.
type heldSnap struct {
	snap *Snapshot
	want [][]uint32
}

func (h heldSnap) check(what string) error {
	for v, want := range h.want {
		walk := func(yield func([]uint32) bool) { h.snap.NeighborBlocks(uint32(v), yield) }
		if err := engine.CheckBlocks(walk, want); err != nil {
			return fmt.Errorf("%s (seq %d), vertex %d: %w", what, h.snap.seq, v, err)
		}
		if int(h.snap.Degree(uint32(v))) != len(want) {
			return fmt.Errorf("%s (seq %d), vertex %d: degree %d, want %d", what, h.snap.seq, v, h.snap.Degree(uint32(v)), len(want))
		}
	}
	return nil
}

// runPublishProgram returns the entries the cleaner copied.
func runPublishProgram(prog []byte) (cleaned uint64, err error) {
	g := NewPaged(fuzzSpace, 1, 2)
	sh := g.Shard(0)
	ref := refgraph.New(fuzzSpace)
	var latest heldSnap
	var held []heldSnap
	latestHeld := false
	publish := func() error {
		snap := sh.Publish()
		if latest.snap != nil && !latestHeld {
			sh.Recycle(latest.snap)
		}
		want := make([][]uint32, fuzzVerts)
		for v := range want {
			want[v] = slices.Clone(ref.Neighbors(uint32(v)))
		}
		latest, latestHeld = heldSnap{snap, want}, false
		if err := latest.check("latest"); err != nil {
			return err
		}
		if ps := sh.Published(); len(held) == 0 && ps.InUse+ps.Free > ps.Bound {
			return fmt.Errorf("publish seq %d: arena %+v exceeds its bound", snap.seq, ps)
		}
		return nil
	}
	if err := publish(); err != nil {
		return 0, err
	}
	batch := func(op, a, b, c byte) {
		v := uint32(a) % fuzzVerts
		n := 16 * (int(b) + 1)
		src, dst := make([]uint32, n), make([]uint32, n)
		for i := range src {
			src[i] = v
			dst[i] = (uint32(c)*97 + uint32(i)*(2*uint32(c%4)+1)) % fuzzSpace
			if op < 3 {
				ref.Insert(v, dst[i])
			} else {
				ref.Delete(v, dst[i])
			}
		}
		if op < 3 {
			sh.InsertBatch(src, dst)
		} else {
			sh.DeleteBatch(src, dst)
		}
	}
	for ; len(prog) >= 4; prog = prog[4:] {
		op, a, b, c := prog[0]%8, prog[1], prog[2], prog[3]
		switch {
		case op < 5:
			batch(op, a, b, c)
			if err := publish(); err != nil {
				return 0, err
			}
		case op == 5:
			if !latestHeld && len(held) < 6 {
				held, latestHeld = append(held, latest), true
			}
		case op == 6:
			// Any held snapshot but the latest, which Recycle must not take.
			if i := int(a) % max(len(held), 1); i < len(held) && held[i].snap != latest.snap {
				if err := held[i].check("held, about to be recycled"); err != nil {
					return 0, err
				}
				sh.Recycle(held[i].snap)
				held = slices.Delete(held, i, i+1)
			}
		default:
			batch(a%5, b, c, a)
			batch(b%5, c, a, b)
			if err := publish(); err != nil {
				return 0, err
			}
		}
	}
	for _, h := range held {
		if err := h.check("held to the end"); err != nil {
			return 0, err
		}
	}
	return sh.Published().Cleaned, g.CheckInvariants()
}

// TestPublishRecyclePrograms runs the fuzz target's interpreter on a few
// long pseudo-random programs, so the plain test run covers it too, and
// requires that they get as far as cleaning pages.
func TestPublishRecyclePrograms(t *testing.T) {
	var cleaned uint64
	for seed := byte(1); seed < 6; seed++ {
		var prog []byte
		for i := 0; i < 400; i++ {
			x := byte(i)*31 + seed*byte(i>>3)
			prog = append(prog, x%8, x*5+seed, 128+x%128, x*3)
		}
		c, err := runPublishProgram(prog)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cleaned += c
	}
	if cleaned == 0 {
		t.Fatal("no program made the arena clean a page")
	}
}
