package core

import (
	"slices"
	"unsafe"

	"lsgraph/internal/hitree"
	"lsgraph/internal/pma"
	"lsgraph/internal/ria"
)

// ovKind names the structure a vertex block's overflow pointer addresses.
type ovKind uint32

const (
	kindArr  ovKind = iota // element 0 of a sorted array of arrCap(ovLen) entries; nil when empty
	kindRIA                // *ria.RIA, for A < ovLen ≤ M
	kindTree               // *hitree.Tree, above M (down to M/2 once there)
	kindPMA                // *pma.PMA[uint32], the KindPMA ablation at any size

	// The kind is the top two bits of vertex.deg, leaving 30 bits of degree;
	// deg++ and deg-- never carry into them.
	kindShift = 30
	degMask   = 1<<kindShift - 1
)

// vertex is a vertex block (§4.1, Figure 9 ①): degree, the inline neighbor
// slots and the overflow pointer in exactly one 64-byte cache line. The
// inline slots always hold the deg∧L smallest neighbors in sorted order, so
// an ordered traversal is inline-then-overflow, and the overflow holds the
// other degree−L, so its size is stored nowhere else. ov is a real pointer,
// never an integer-tagged one — to element 0 of a live array or to a live
// structure, as kind() says — so the collector, -race and checkptr treat
// it like any other.
type vertex struct {
	deg    uint32 // degree in the low 30 bits, ovKind in the top two
	inline [inlineCap]uint32
	ov     unsafe.Pointer
}

func (vb *vertex) degree() uint32 { return vb.deg & degMask }
func (vb *vertex) kind() ovKind   { return ovKind(vb.deg >> kindShift) }

// inlineLen returns the number of live inline slots.
func (vb *vertex) inlineLen() int { return min(int(vb.degree()), inlineCap) }

// ovLen returns the number of neighbors held by the overflow structure.
func (vb *vertex) ovLen() int { return int(vb.degree()) - vb.inlineLen() }

// inlineFind returns the slot of u in the inline area, or the insertion
// point with found=false.
func (vb *vertex) inlineFind(u uint32) (int, bool) {
	n := vb.inlineLen()
	for i := 0; i < n; i++ {
		if vb.inline[i] == u {
			return i, true
		}
		if vb.inline[i] > u {
			return i, false
		}
	}
	return n, false
}

// arrCap is the capacity of the allocation behind an array overflow of n
// elements: 4, 8, 12, 16, 24 or 32 entries — Go's 16- to 128-byte size
// classes exactly, so the runtime's allocator is the slab — then multiples
// of 16 when ArrayMax is raised. A pure function of n: the block stores none.
func arrCap(n int) int {
	switch {
	case n <= 16:
		return (n + 3) &^ 3
	case n <= 32:
		return (n + 7) &^ 7
	}
	return (n + 15) &^ 15
}

// arr returns a kindArr block's overflow array.
func (vb *vertex) arr() []uint32 {
	n := vb.ovLen()
	return unsafe.Slice((*uint32)(vb.ov), arrCap(n))[:n]
}

func (vb *vertex) ria() *ria.RIA         { return (*ria.RIA)(vb.ov) }
func (vb *vertex) tree() *hitree.Tree    { return (*hitree.Tree)(vb.ov) }
func (vb *vertex) pma() *pma.PMA[uint32] { return (*pma.PMA[uint32])(vb.ov) }

// arrSplice returns a fresh class-sized array holding a with a[i:j]
// replaced by the elements of ins.
func arrSplice(a []uint32, i, j int, ins ...uint32) []uint32 {
	n := len(a) - (j - i) + len(ins)
	na := make([]uint32, n, arrCap(n))
	copy(na[copy(na, a[:i]):], ins)
	copy(na[i+len(ins):], a[j:])
	return na
}

// setOverflow replaces vb's overflow with the structure the thresholds of
// §4.1 pick for the sorted neighbor slice ns, which it copies.
func (g *Graph) setOverflow(vb *vertex, ns []uint32) {
	kind, wasTree := kindArr, vb.kind() == kindTree
	switch {
	case len(ns) == 0:
		vb.ov = nil
	case g.cfg.Overflow == KindPMA:
		kind, vb.ov = kindPMA, unsafe.Pointer(pma.BulkLoad(ns))
	case len(ns) <= g.cfg.ArrayMax:
		vb.ov = unsafe.Pointer(unsafe.SliceData(arrSplice(ns, 0, 0)))
	case len(ns) <= g.cfg.M:
		kind, vb.ov = kindRIA, unsafe.Pointer(ria.BulkLoad(ns, g.cfg.Alpha))
	default:
		kind, vb.ov = kindTree, unsafe.Pointer(hitree.BulkLoad(ns, g.treeCfg))
		if !wasTree {
			g.stats.RIAToHITree.Add(1)
			obsPromoteRIAHIT.Inc()
		}
	}
	vb.deg = vb.deg&degMask | uint32(kind)<<kindShift
}

// ovInsert adds u to vb's overflow, reporting whether it was absent, and
// moves the overflow up a class when it outgrows its own: an array to the
// next capacity, then to an RIA past ArrayMax; an RIA to a HITree past M
// (the transition §6.2 counts). The caller counts u into vb.deg afterwards.
func (g *Graph) ovInsert(vb *vertex, u uint32) bool {
	switch vb.kind() {
	case kindRIA:
		r := vb.ria()
		if !r.Insert(u) {
			return false
		}
		if r.Len() > g.cfg.M {
			g.setOverflow(vb, r.AppendTo(make([]uint32, 0, r.Len())))
		}
		return true
	case kindTree:
		return vb.tree().Insert(u)
	case kindPMA:
		return vb.pma().Insert(u)
	}
	a := vb.arr()
	i, found := slices.BinarySearch(a, u)
	if found {
		return false
	}
	switch n := len(a); {
	case n == g.cfg.ArrayMax || g.cfg.Overflow == KindPMA:
		if n > 0 {
			obsPromoteArrRIA.Inc()
		}
		g.setOverflow(vb, arrSplice(a, i, i, u))
	case n == cap(a):
		vb.ov = unsafe.Pointer(unsafe.SliceData(arrSplice(a, i, i, u)))
	default:
		a = a[:n+1]
		copy(a[i+1:], a[i:])
		a[i] = u
	}
	return true
}

// ovDelete removes u from vb's overflow, reporting whether it was present,
// and gives memory back as rebuildVertex does on the bulk path: an array
// moves down a capacity when its length crosses one, an RIA that falls to
// ArrayMax becomes an array, and a HITree that falls to M/2 becomes an RIA
// — half of M because that flip is O(M), and a degree hovering at M would
// pay it per update. The caller counts u out of vb.deg afterwards.
func (g *Graph) ovDelete(vb *vertex, u uint32) bool {
	switch vb.kind() {
	case kindRIA:
		r := vb.ria()
		if !r.Delete(u) {
			return false
		}
		if r.Len() <= g.cfg.ArrayMax {
			g.setOverflow(vb, r.AppendTo(make([]uint32, 0, r.Len())))
		}
		return true
	case kindTree:
		t := vb.tree()
		if !t.Delete(u) {
			return false
		}
		if t.Len() <= g.cfg.M/2 {
			g.setOverflow(vb, t.AppendTo(make([]uint32, 0, t.Len())))
		}
		return true
	case kindPMA:
		p := vb.pma()
		if !p.Delete(u) {
			return false
		}
		if p.Len() == 0 {
			g.setOverflow(vb, nil)
		}
		return true
	}
	a := vb.arr()
	i, found := slices.BinarySearch(a, u)
	if found {
		vb.arrRemove(a, i)
	}
	return found
}

// arrRemove removes a[i] from vb's array overflow a.
func (vb *vertex) arrRemove(a []uint32, i int) {
	switch {
	case len(a) == 1:
		vb.ov = nil
	case arrCap(len(a)-1) != cap(a):
		// A memmove into the smaller class, never a reslice: a slice of the
		// old allocation would keep all of it alive.
		vb.ov = unsafe.Pointer(unsafe.SliceData(arrSplice(a, i, i+1)))
	default:
		copy(a[i:], a[i+1:])
	}
}

// ovDeleteMin removes and returns the smallest overflow neighbor, to refill
// the inline area; the overflow must be non-empty.
func (g *Graph) ovDeleteMin(vb *vertex) (m uint32) {
	switch vb.kind() {
	case kindRIA:
		m = vb.ria().Min()
	case kindTree:
		m = vb.tree().Min()
	case kindPMA:
		m = vb.pma().Min()
	default:
		a := vb.arr()
		m = a[0]
		vb.arrRemove(a, 0)
		return m
	}
	g.ovDelete(vb, m)
	return m
}

// ovHas reports whether u is in vb's overflow.
func (vb *vertex) ovHas(u uint32) bool {
	switch vb.kind() {
	case kindRIA:
		return vb.ria().Has(u)
	case kindTree:
		return vb.tree().Has(u)
	case kindPMA:
		return vb.pma().Has(u)
	}
	_, found := slices.BinarySearch(vb.arr(), u)
	return found
}

// ovBlocks is the overflow's one in-order walk: it yields ascending
// contiguous segments aliasing the backing storage, under the engine.Graph
// NeighborBlocks contract, and reports whether the walk ran to completion.
func (vb *vertex) ovBlocks(yield func(block []uint32) bool) bool {
	switch vb.kind() {
	case kindRIA:
		return vb.ria().Blocks(yield)
	case kindTree:
		return vb.tree().Blocks(yield)
	case kindPMA:
		return vb.pma().Blocks(yield)
	}
	a := vb.arr()
	return len(a) == 0 || yield(a[:len(a):len(a)])
}

// ovAppendTo bulk-copies the overflow out, for the write path (merge
// rebuilds, publish).
func (vb *vertex) ovAppendTo(dst []uint32) []uint32 {
	switch vb.kind() {
	case kindRIA:
		return vb.ria().AppendTo(dst)
	case kindTree:
		return vb.tree().AppendTo(dst)
	case kindPMA:
		return vb.pma().AppendTo(dst)
	}
	return append(dst, vb.arr()...)
}
