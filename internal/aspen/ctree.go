// Package aspen re-implements the design of Aspen (Dhulipala et al., PLDI
// '19), the purely-functional baseline of the paper's evaluation. Each
// vertex's edge set is a persistent chunked search tree (a C-tree
// analogue): tree nodes own small sorted chunks of neighbors, updates copy
// the root-to-leaf path and share everything else, and traversal walks the
// tree in order — the pointer chasing per chunk is exactly the random-
// access cost §6.3 measures against LSGraph's flat blocks.
//
// Substitution note (DESIGN.md): Aspen's vertex tree is replaced by a
// copy-on-write array of per-vertex roots, since this repository uses dense
// vertex IDs; its difference-encoded chunk compression is omitted (all
// engines here store raw uint32 IDs, so relative memory comparisons remain
// fair).
package aspen

// chunkTarget is the chunk size at bulk build; chunks split at 2× this.
// Small chunks with tree pointers between them reproduce Aspen's traversal
// locality profile.
const chunkTarget = 32

// cnode is an immutable chunked-treap node: a sorted chunk plus subtrees
// strictly below/above the chunk's range. prio is a hash of the chunk's
// first element, giving a deterministic treap shape.
type cnode struct {
	prio        uint64
	chunk       []uint32
	left, right *cnode
	size        int // subtree element count
}

func hash64(x uint32) uint64 {
	z := uint64(x) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func size(n *cnode) int {
	if n == nil {
		return 0
	}
	return n.size
}

// mk builds a node from parts, computing size.
func mk(chunk []uint32, left, right *cnode) *cnode {
	return &cnode{
		prio:  hash64(chunk[0]),
		chunk: chunk,
		left:  left,
		right: right,
		size:  len(chunk) + size(left) + size(right),
	}
}

// build constructs a balanced-by-priority treap from sorted distinct ns.
func build(ns []uint32) *cnode {
	if len(ns) == 0 {
		return nil
	}
	// Cut into chunks, then assemble by recursive max-priority selection;
	// hash priorities make the expected cost O(n log n).
	nChunks := (len(ns) + chunkTarget - 1) / chunkTarget
	chunks := make([][]uint32, 0, nChunks)
	for lo := 0; lo < len(ns); lo += chunkTarget {
		hi := lo + chunkTarget
		if hi > len(ns) {
			hi = len(ns)
		}
		c := make([]uint32, hi-lo)
		copy(c, ns[lo:hi])
		chunks = append(chunks, c)
	}
	return buildRange(chunks)
}

func buildRange(chunks [][]uint32) *cnode {
	if len(chunks) == 0 {
		return nil
	}
	maxI, maxP := 0, hash64(chunks[0][0])
	for i := 1; i < len(chunks); i++ {
		if p := hash64(chunks[i][0]); p > maxP {
			maxI, maxP = i, p
		}
	}
	return mk(chunks[maxI], buildRange(chunks[:maxI]), buildRange(chunks[maxI+1:]))
}

// insert returns a new treap with u added; ok is false if u was present.
// Path copying: every node on the search path is re-allocated.
func insert(n *cnode, u uint32) (*cnode, bool) {
	if n == nil {
		return mk([]uint32{u}, nil, nil), true
	}
	switch {
	case u < n.chunk[0]:
		l, ok := insert(n.left, u)
		if !ok {
			return n, false
		}
		nn := mk(n.chunk, l, n.right)
		return rotateIfNeeded(nn), true
	case u > n.chunk[len(n.chunk)-1]:
		// u may belong in this chunk's gap only if the right subtree's
		// minimum exceeds it; chunks own contiguous key ranges bounded by
		// their neighbors, so append into this chunk when it has room and
		// u precedes the right subtree entirely.
		if n.right == nil || u < minOf(n.right) {
			if len(n.chunk) < 2*chunkTarget {
				c := make([]uint32, len(n.chunk)+1)
				copy(c, n.chunk)
				c[len(n.chunk)] = u
				return mk(c, n.left, n.right), true
			}
		}
		r, ok := insert(n.right, u)
		if !ok {
			return n, false
		}
		nn := mk(n.chunk, n.left, r)
		return rotateIfNeeded(nn), true
	default:
		// Within the chunk's range.
		i, found := searchChunk(n.chunk, u)
		if found {
			return n, false
		}
		c := make([]uint32, len(n.chunk)+1)
		copy(c, n.chunk[:i])
		c[i] = u
		copy(c[i+1:], n.chunk[i:])
		if len(c) > 2*chunkTarget {
			return splitOversized(c, n.left, n.right), true
		}
		return mk(c, n.left, n.right), true
	}
}

// splitOversized halves chunk c and pushes the upper half into the right
// subtree as a fresh node.
func splitOversized(c []uint32, left, right *cnode) *cnode {
	mid := len(c) / 2
	upper := make([]uint32, len(c)-mid)
	copy(upper, c[mid:])
	r, _ := insertNode(right, mk(upper, nil, nil))
	return rotateIfNeeded(mk(c[:mid], left, r))
}

// insertNode inserts a single detached node into the treap by its key
// range (used only for split halves, whose range is disjoint from t's
// nodes on the insertion side).
func insertNode(t, nn *cnode) (*cnode, bool) {
	if t == nil {
		return nn, true
	}
	if nn.chunk[0] < t.chunk[0] {
		l, _ := insertNode(t.left, nn)
		return rotateIfNeeded(mk(t.chunk, l, t.right)), true
	}
	r, _ := insertNode(t.right, nn)
	return rotateIfNeeded(mk(t.chunk, t.left, r)), true
}

// rotateIfNeeded restores the max-heap priority property locally.
func rotateIfNeeded(n *cnode) *cnode {
	if n.left != nil && n.left.prio > n.prio {
		l := n.left
		return mk(l.chunk, l.left, mk(n.chunk, l.right, n.right))
	}
	if n.right != nil && n.right.prio > n.prio {
		r := n.right
		return mk(r.chunk, mk(n.chunk, n.left, r.left), r.right)
	}
	return n
}

func minOf(n *cnode) uint32 {
	for n.left != nil {
		n = n.left
	}
	return n.chunk[0]
}

// remove returns a new treap with u removed; ok is false if absent.
func remove(n *cnode, u uint32) (*cnode, bool) {
	if n == nil {
		return nil, false
	}
	switch {
	case u < n.chunk[0]:
		l, ok := remove(n.left, u)
		if !ok {
			return n, false
		}
		return mk(n.chunk, l, n.right), true
	case u > n.chunk[len(n.chunk)-1]:
		r, ok := remove(n.right, u)
		if !ok {
			return n, false
		}
		return mk(n.chunk, n.left, r), true
	default:
		i, found := searchChunk(n.chunk, u)
		if !found {
			return n, false
		}
		if len(n.chunk) == 1 {
			return merge(n.left, n.right), true
		}
		c := make([]uint32, len(n.chunk)-1)
		copy(c, n.chunk[:i])
		copy(c[i:], n.chunk[i+1:])
		return mk(c, n.left, n.right), true
	}
}

// merge joins two treaps where every element of a precedes every element
// of b.
func merge(a, b *cnode) *cnode {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a.prio > b.prio:
		return mk(a.chunk, a.left, merge(a.right, b))
	default:
		return mk(b.chunk, merge(a, b.left), b.right)
	}
}

func searchChunk(c []uint32, u uint32) (int, bool) {
	lo, hi := 0, len(c)
	for lo < hi {
		mid := (lo + hi) / 2
		if c[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(c) && c[lo] == u
}

func contains(n *cnode, u uint32) bool {
	for n != nil {
		switch {
		case u < n.chunk[0]:
			n = n.left
		case u > n.chunk[len(n.chunk)-1]:
			n = n.right
		default:
			_, found := searchChunk(n.chunk, u)
			return found
		}
	}
	return false
}

// blocksUntil yields each chunk of the in-order walk as one slice aliasing
// the node's storage — Aspen's honest block granularity: contiguity ends
// at every chunk boundary, with a pointer chase between yields.
func blocksUntil(n *cnode, yield func(block []uint32) bool) bool {
	if n == nil {
		return true
	}
	if !blocksUntil(n.left, yield) {
		return false
	}
	if !yield(n.chunk[:len(n.chunk):len(n.chunk)]) {
		return false
	}
	return blocksUntil(n.right, yield)
}

func memoryOf(n *cnode) uint64 {
	if n == nil {
		return 0
	}
	return uint64(cap(n.chunk)*4) + 56 + memoryOf(n.left) + memoryOf(n.right)
}
