package core

import (
	"fmt"

	"lsgraph/internal/hitree"
	"lsgraph/internal/ria"
)

// CheckInvariants walks every shard and vertex block of the graph and
// verifies the engine's structural invariants, returning a descriptive
// error on the first violation. It is the deep validator behind
// internal/check's randomized correctness harness (check.Shards wraps it)
// and the debug hook installed by SetDebugValidate. Like reads, it must
// not run concurrently with updates.
//
// Checked:
//   - the partition map: structurally valid (PartitionMap.CheckInvariants)
//     with every shard's base equal to its map start, materialized storage
//     never exceeding the shard's owned slice of [0, NumVertices), and
//     locate/ShardOf agreeing for the boundary IDs of every shard,
//   - vertex blocks: inline area strictly ascending, degree equal to
//     inline + overflow size, the overflow present only when the inline
//     area is full, and the inline maximum below the overflow minimum
//     (the inline-holds-smallest invariant),
//   - overflow policy: sorted-array overflows within ArrayMax and RIA
//     overflows within M (promotion thresholds are never exceeded at
//     rest), with the deep RIA/HITree validators run on each structure,
//   - every stored neighbor inside [0, NumVertices),
//   - per-shard edge counters equal to the sum of their vertices' degrees.
func (g *Graph) CheckInvariants() error {
	n := g.n.Load()
	pm := g.pmap.Load()
	if err := pm.CheckInvariants(len(g.shards)); err != nil {
		return err
	}
	for i := range g.shards {
		sh := &g.shards[i]
		if want := pm.Starts[i]; sh.base != want {
			return fmt.Errorf("core: shard %d base %d != map start %d (epoch %d)", i, sh.base, want, pm.Epoch)
		}
		if max := pm.RangeLen(i, n); len(sh.verts) > max {
			return fmt.Errorf("core: shard %d materializes %d slots, owns at most %d of [0,%d)",
				i, len(sh.verts), max, n)
		}
		if len(sh.verts) > 0 {
			// Routing round-trip for the shard's boundary IDs: the owner
			// locate reports must be the shard that materializes the slot.
			for _, v := range []uint32{sh.base, sh.base + uint32(len(sh.verts)) - 1} {
				if lsh, lv := g.locate(v); lsh != sh || lv != v-sh.base {
					return fmt.Errorf("core: ID %d owned by shard %d routes elsewhere", v, i)
				}
			}
		}
		var edges uint64
		for lv := range sh.verts {
			if err := g.checkVertex(sh, uint32(lv), n); err != nil {
				return err
			}
			edges += uint64(sh.verts[lv].deg)
		}
		if m := sh.m.Load(); m != edges {
			return fmt.Errorf("core: shard %d edge counter %d != degree sum %d", i, m, edges)
		}
	}
	return nil
}

// checkVertex validates one vertex block of sh under the logical bound n.
func (g *Graph) checkVertex(sh *shardState, lv, n uint32) error {
	vb := &sh.verts[lv]
	v := sh.base + lv
	il := vb.inlineLen()
	for i := 0; i < il; i++ {
		if u := vb.inline[i]; u >= n {
			return fmt.Errorf("core: vertex %d inline neighbor %d outside [0,%d)", v, u, n)
		}
		if i > 0 && vb.inline[i] <= vb.inline[i-1] {
			return fmt.Errorf("core: vertex %d inline area unsorted at slot %d", v, i)
		}
	}
	if vb.ov == nil {
		if vb.deg > inlineCap {
			return fmt.Errorf("core: vertex %d degree %d exceeds inline capacity with no overflow", v, vb.deg)
		}
		return nil
	}
	ol := vb.ov.Len()
	if ol == 0 {
		return fmt.Errorf("core: vertex %d holds an empty overflow", v)
	}
	if il != inlineCap {
		return fmt.Errorf("core: vertex %d has overflow but only %d inline slots used", v, il)
	}
	if vb.deg != uint32(inlineCap+ol) {
		return fmt.Errorf("core: vertex %d degree %d != inline %d + overflow %d", v, vb.deg, inlineCap, ol)
	}
	if min := vb.ov.Min(); min <= vb.inline[inlineCap-1] {
		return fmt.Errorf("core: vertex %d overflow min %d not above inline max %d (inline-holds-smallest broken)",
			v, min, vb.inline[inlineCap-1])
	}
	switch ov := vb.ov.(type) {
	case *arrOverflow:
		if ol > g.cfg.ArrayMax {
			return fmt.Errorf("core: vertex %d array overflow of %d exceeds ArrayMax %d (missed promotion)",
				v, ol, g.cfg.ArrayMax)
		}
	case *ria.RIA:
		if ol > g.cfg.M {
			return fmt.Errorf("core: vertex %d RIA overflow of %d exceeds M %d (missed promotion)", v, ol, g.cfg.M)
		}
		if err := ov.CheckInvariants(); err != nil {
			return fmt.Errorf("core: vertex %d: %w", v, err)
		}
	case *hitree.Tree:
		if err := ov.CheckInvariants(); err != nil {
			return fmt.Errorf("core: vertex %d: %w", v, err)
		}
	}
	// The overflow's in-order walk must yield non-empty blocks, strictly
	// ascending across block boundaries, in range, Len() elements in all;
	// the per-kind validators above already check internal ordering for
	// RIA and HITree, so this also covers the plain array and PMA kinds.
	prev, walked, bad := vb.inline[inlineCap-1], 0, ""
	vb.ov.Blocks(func(bs []uint32) bool {
		if len(bs) == 0 {
			bad = fmt.Sprintf("core: vertex %d overflow yielded an empty block", v)
		}
		for _, u := range bs {
			if u >= n {
				bad = fmt.Sprintf("core: vertex %d overflow neighbor %d outside [0,%d)", v, u, n)
			} else if u <= prev {
				bad = fmt.Sprintf("core: vertex %d overflow unsorted: %d after %d", v, u, prev)
			}
			prev = u
		}
		walked += len(bs)
		return bad == ""
	})
	if bad == "" && walked != ol {
		bad = fmt.Sprintf("core: vertex %d overflow walk yielded %d of %d neighbors", v, walked, ol)
	}
	if bad != "" {
		return fmt.Errorf("%s", bad)
	}
	return nil
}

// debugValidate, when non-nil, runs at the end of every graph-level
// InsertBatch/DeleteBatch. It is a test-only debug hook: install a
// validator (typically one that panics on CheckInvariants failure) with
// SetDebugValidate to catch a corrupting batch at the batch that caused
// it rather than at the next read. Not for production use, and not safe
// to toggle concurrently with updates.
var debugValidate func(*Graph)

// SetDebugValidate installs f as the post-batch debug validator (nil
// disables it) and returns the previous hook so tests can restore it.
func SetDebugValidate(f func(*Graph)) func(*Graph) {
	prev := debugValidate
	debugValidate = f
	return prev
}

// runDebugValidate invokes the debug hook if one is installed.
func (g *Graph) runDebugValidate() {
	if debugValidate != nil {
		debugValidate(g)
	}
}
