package core

import "fmt"

// CheckInvariants walks every vertex block of the graph and verifies the
// engine's structural invariants, returning a descriptive error on the
// first violation. It is the deep validator behind the debug hook installed
// by SetDebugValidate and internal/check's randomized correctness harness.
// Like reads, it must not run concurrently with updates.
//
// Checked:
//   - the graph's range: one, [0, ∞), with materialized blocks never
//     exceeding [0, NumVertices) (checkShards),
//   - vertex blocks: inline area strictly ascending, degree equal to
//     inline + overflow size, the overflow pointer non-nil exactly when the
//     degree exceeds the inline capacity, the kind bits naming the array
//     class on every block without overflow, and the inline maximum below
//     the overflow minimum (the inline-holds-smallest invariant),
//   - overflow policy, in both directions: a sorted array only up to
//     ArrayMax, an RIA only in (ArrayMax, M], a HITree only above M/2 — no
//     promotion and no demotion is ever missed at rest — and a PMA only
//     under KindPMA, with the deep RIA/HITree validators run on each
//     structure. An array's capacity is arrCap of its length by
//     construction: the block stores none that could disagree, and the
//     checkptr pass of make verify faults any walk that reads past a
//     smaller allocation,
//   - every stored neighbor inside [0, NumVertices),
//   - the edge counter equal to the sum of the vertices' degrees.
func (g *Graph) CheckInvariants() error {
	n := g.n.Load()
	return g.checkShards(1, func(int) (*pipe, int, uint64, error) {
		var edges uint64
		for v := range g.verts {
			if err := g.checkVertex(uint32(v), n); err != nil {
				return nil, 0, 0, err
			}
			edges += uint64(g.verts[v].degree())
		}
		return &g.pc, len(g.verts), edges, nil
	})
}

// CheckInvariants walks every shard of the paged graph and verifies its
// structural invariants, returning a descriptive error on the first
// violation: the shards' ranges, as Graph.CheckInvariants checks them, and
// of each shard's table and arena every run within one page, strictly
// ascending and inside [0, NumVertices), every page's live count equal to
// the summed degrees of the runs in it, the pages' capacities summing to
// what the arena counts in use, and the edge counter equal to the table's
// summed degrees. internal/check's harness runs it. Like
// updates, it must not run concurrently with them.
func (g *Paged) CheckInvariants() error {
	n := g.n.Load()
	return g.checkShards(len(g.shards), func(i int) (*pipe, int, uint64, error) {
		sh := &g.shards[i]
		edges, err := sh.checkRuns(n)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("core: shard %d: %w", i, err)
		}
		return &sh.pipe, len(sh.tab), edges, nil
	})
}

// checkVertex validates v's vertex block under the logical bound n.
func (g *Graph) checkVertex(v, n uint32) error {
	vb := &g.verts[v]
	il := vb.inlineLen()
	for i := 0; i < il; i++ {
		if u := vb.inline[i]; u >= n {
			return fmt.Errorf("core: vertex %d inline neighbor %d outside [0,%d)", v, u, n)
		}
		if i > 0 && vb.inline[i] <= vb.inline[i-1] {
			return fmt.Errorf("core: vertex %d inline area unsorted at slot %d", v, i)
		}
	}
	ol, kind := vb.ovLen(), vb.kind()
	if (ol == 0) != (vb.ov == nil) || (ol == 0 && kind != kindArr) {
		return fmt.Errorf("core: vertex %d degree %d, kind %d: overflow pointer nil=%v", v, vb.degree(), kind, vb.ov == nil)
	}
	if ol == 0 {
		return nil
	}
	// Each class holds exactly the sizes the thresholds give it, whichever
	// way the vertex got there: growth promotes on the way up and deletes
	// demote on the way down (a HITree only at M/2, see ovDelete).
	sl := ol // the size the structure itself reports
	switch A, M := g.cfg.ArrayMax, g.cfg.M; kind {
	case kindArr:
		if ol > A || g.cfg.Overflow == KindPMA {
			return fmt.Errorf("core: vertex %d array overflow of %d exceeds ArrayMax %d (missed promotion)", v, ol, A)
		}
	case kindRIA:
		if ol <= A || ol > M {
			return fmt.Errorf("core: vertex %d RIA overflow of %d outside (%d,%d] (missed promotion or demotion)", v, ol, A, M)
		}
		if err := vb.ria().CheckInvariants(); err != nil {
			return fmt.Errorf("core: vertex %d: %w", v, err)
		}
		sl = vb.ria().Len()
	case kindTree:
		if ol <= M/2 {
			return fmt.Errorf("core: vertex %d HITree overflow of %d at or below M/2 = %d (missed demotion)", v, ol, M/2)
		}
		if err := vb.tree().CheckInvariants(); err != nil {
			return fmt.Errorf("core: vertex %d: %w", v, err)
		}
		sl = vb.tree().Len()
	case kindPMA:
		if g.cfg.Overflow != KindPMA {
			return fmt.Errorf("core: vertex %d holds a PMA overflow outside the KindPMA ablation", v)
		}
		sl = vb.pma().Len()
	}
	if sl != ol {
		return fmt.Errorf("core: vertex %d degree %d != inline %d + overflow %d", v, vb.degree(), inlineCap, sl)
	}
	// The overflow's in-order walk must yield non-empty blocks, strictly
	// ascending from the inline maximum on (the inline-holds-smallest
	// invariant) and across block boundaries, in range, ol elements in all;
	// the per-kind validators above already check internal ordering for
	// RIA and HITree, so this also covers the plain array and PMA kinds.
	prev, walked, bad := vb.inline[inlineCap-1], 0, ""
	vb.ovBlocks(func(bs []uint32) bool {
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

// checkRuns validates the shard's table and arena under the logical bound
// n and returns the table's summed degrees.
func (sh *pagedShard) checkRuns(n uint32) (edges uint64, err error) {
	a := &sh.pub
	live := make([]uint32, len(a.pages))
	for lv, r := range sh.tab {
		v := sh.base + uint32(lv)
		if r.deg == 0 {
			continue
		}
		id, lo := int(r.off>>pageBits), int(r.off&pageMask)
		if id >= len(a.pages) || lo+int(r.deg) > len(a.pages[id]) {
			return 0, fmt.Errorf("vertex %d: run of %d at %d leaves page %d", v, r.deg, lo, id)
		}
		ns := a.read(r)
		for i, u := range ns {
			if u >= n {
				return 0, fmt.Errorf("vertex %d neighbor %d outside [0,%d)", v, u, n)
			}
			if i > 0 && u <= ns[i-1] {
				return 0, fmt.Errorf("vertex %d run unsorted: %d after %d", v, u, ns[i-1])
			}
		}
		live[id] += r.deg
		edges += uint64(r.deg)
	}
	var inUse uint64
	for id, pg := range a.pages {
		if live[id] != a.live[id] {
			return 0, fmt.Errorf("page %d counts %d live entries, its runs hold %d", id, a.live[id], live[id])
		}
		inUse += uint64(len(pg))
	}
	if inUse != a.inUse {
		return 0, fmt.Errorf("arena counts %d entries of pages in use, its pages hold %d", a.inUse, inUse)
	}
	return edges, nil
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
