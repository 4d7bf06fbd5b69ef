// Package btree implements the in-memory B-tree Terrace uses for
// high-degree vertices (§2.3): wide nodes give it cheap vertical data
// movement on insert, but traversal chases pointers across levels, which is
// the locality weakness the paper's Figure 13 and Table 2 measure.
package btree

// degree is the minimum child count t; nodes hold t-1..2t-1 keys. 16 keys
// per node = one cache line of keys, matching the cache-line framing used
// throughout the repository.
const degree = 9

const maxKeys = 2*degree - 1

type node struct {
	keys     []uint32
	children []*node // nil for leaves
}

func (n *node) leaf() bool { return n.children == nil }

// Tree is a B-tree of distinct uint32 keys. The zero value is an empty
// tree ready to use.
type Tree struct {
	root *node
	n    int
}

// BulkLoad builds a tree from a sorted, duplicate-free slice.
func BulkLoad(ns []uint32) *Tree {
	t := &Tree{}
	for _, u := range ns {
		t.Insert(u)
	}
	return t
}

// Len returns the number of keys stored.
func (t *Tree) Len() int { return t.n }

// Has reports whether u is present.
func (t *Tree) Has(u uint32) bool {
	x := t.root
	for x != nil {
		i, found := search(x.keys, u)
		if found {
			return true
		}
		if x.leaf() {
			return false
		}
		x = x.children[i]
	}
	return false
}

func search(keys []uint32, u uint32) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(keys) && keys[lo] == u
}

// Insert adds u, reporting whether it was absent.
func (t *Tree) Insert(u uint32) bool {
	if t.root == nil {
		t.root = &node{keys: []uint32{u}}
		t.n = 1
		return true
	}
	if len(t.root.keys) == maxKeys {
		old := t.root
		t.root = &node{children: []*node{old}}
		t.splitChild(t.root, 0)
	}
	if !t.insertNonFull(t.root, u) {
		return false
	}
	t.n++
	return true
}

// splitChild splits the full child x.children[i] around its median key.
func (t *Tree) splitChild(x *node, i int) {
	y := x.children[i]
	mid := maxKeys / 2
	median := y.keys[mid]
	z := &node{keys: append([]uint32(nil), y.keys[mid+1:]...)}
	if !y.leaf() {
		z.children = append([]*node(nil), y.children[mid+1:]...)
		y.children = y.children[:mid+1]
	}
	y.keys = y.keys[:mid]
	x.keys = append(x.keys, 0)
	copy(x.keys[i+1:], x.keys[i:])
	x.keys[i] = median
	x.children = append(x.children, nil)
	copy(x.children[i+2:], x.children[i+1:])
	x.children[i+1] = z
}

func (t *Tree) insertNonFull(x *node, u uint32) bool {
	for {
		i, found := search(x.keys, u)
		if found {
			return false
		}
		if x.leaf() {
			x.keys = append(x.keys, 0)
			copy(x.keys[i+1:], x.keys[i:])
			x.keys[i] = u
			return true
		}
		if len(x.children[i].keys) == maxKeys {
			t.splitChild(x, i)
			if u == x.keys[i] {
				return false
			}
			if u > x.keys[i] {
				i++
			}
		}
		x = x.children[i]
	}
}

// Delete removes u, reporting whether it was present. It uses the classic
// CLRS preemptive-merge descent so every visited node has at least degree
// keys.
func (t *Tree) Delete(u uint32) bool {
	if t.root == nil {
		return false
	}
	ok := t.deleteFrom(t.root, u)
	if len(t.root.keys) == 0 {
		if t.root.leaf() {
			t.root = nil
		} else {
			t.root = t.root.children[0]
		}
	}
	if ok {
		t.n--
	}
	return ok
}

func (t *Tree) deleteFrom(x *node, u uint32) bool {
	i, found := search(x.keys, u)
	if x.leaf() {
		if !found {
			return false
		}
		x.keys = append(x.keys[:i], x.keys[i+1:]...)
		return true
	}
	if found {
		// Replace with predecessor or successor, or merge.
		if len(x.children[i].keys) >= degree {
			pred := maxKey(x.children[i])
			x.keys[i] = pred
			return t.deleteFrom(x.children[i], pred)
		}
		if len(x.children[i+1].keys) >= degree {
			succ := minKey(x.children[i+1])
			x.keys[i] = succ
			return t.deleteFrom(x.children[i+1], succ)
		}
		t.mergeChildren(x, i)
		return t.deleteFrom(x.children[i], u)
	}
	// Descend, topping up the child first if it is minimal.
	c := x.children[i]
	if len(c.keys) == degree-1 {
		switch {
		case i > 0 && len(x.children[i-1].keys) >= degree:
			t.borrowLeft(x, i)
		case i < len(x.children)-1 && len(x.children[i+1].keys) >= degree:
			t.borrowRight(x, i)
		default:
			if i == len(x.children)-1 {
				i--
			}
			t.mergeChildren(x, i)
		}
		c = x.children[i]
		// The key may have moved into x during a borrow/merge; re-route.
		return t.deleteFrom(x, u)
	}
	return t.deleteFrom(c, u)
}

func maxKey(x *node) uint32 {
	for !x.leaf() {
		x = x.children[len(x.children)-1]
	}
	return x.keys[len(x.keys)-1]
}

func minKey(x *node) uint32 {
	for !x.leaf() {
		x = x.children[0]
	}
	return x.keys[0]
}

// borrowLeft moves a key from child i-1 through x into child i.
func (t *Tree) borrowLeft(x *node, i int) {
	l, c := x.children[i-1], x.children[i]
	c.keys = append(c.keys, 0)
	copy(c.keys[1:], c.keys)
	c.keys[0] = x.keys[i-1]
	x.keys[i-1] = l.keys[len(l.keys)-1]
	l.keys = l.keys[:len(l.keys)-1]
	if !l.leaf() {
		c.children = append(c.children, nil)
		copy(c.children[1:], c.children)
		c.children[0] = l.children[len(l.children)-1]
		l.children = l.children[:len(l.children)-1]
	}
}

// borrowRight moves a key from child i+1 through x into child i.
func (t *Tree) borrowRight(x *node, i int) {
	c, r := x.children[i], x.children[i+1]
	c.keys = append(c.keys, x.keys[i])
	x.keys[i] = r.keys[0]
	r.keys = append(r.keys[:0], r.keys[1:]...)
	if !r.leaf() {
		c.children = append(c.children, r.children[0])
		r.children = append(r.children[:0], r.children[1:]...)
	}
}

// mergeChildren merges child i, key i, and child i+1 into child i.
func (t *Tree) mergeChildren(x *node, i int) {
	l, r := x.children[i], x.children[i+1]
	l.keys = append(l.keys, x.keys[i])
	l.keys = append(l.keys, r.keys...)
	l.children = append(l.children, r.children...)
	x.keys = append(x.keys[:i], x.keys[i+1:]...)
	x.children = append(x.children[:i+1], x.children[i+2:]...)
}

// Min returns the smallest key; t must be non-empty.
func (t *Tree) Min() uint32 { return minKey(t.root) }

// DeleteMin removes and returns the smallest key; t must be non-empty.
func (t *Tree) DeleteMin() uint32 {
	m := minKey(t.root)
	t.Delete(m)
	return m
}

// Blocks yields every key in ascending order as slices aliasing node
// storage, stopping early when yield returns false and reporting whether
// the walk ran to completion. A leaf's keys come out as one block; an
// internal node's keys separate its children, so each comes out alone
// between their blocks. Blocks are valid only until yield returns and
// must not be mutated.
func (t *Tree) Blocks(yield func(block []uint32) bool) bool {
	return blocks(t.root, yield)
}

func blocks(x *node, yield func([]uint32) bool) bool {
	if x == nil {
		return true
	}
	if x.leaf() {
		// Every leaf holds at least one key: an emptied root is dropped.
		return yield(x.keys[:len(x.keys):len(x.keys)])
	}
	for i := range x.keys {
		if !blocks(x.children[i], yield) || !yield(x.keys[i:i+1:i+1]) {
			return false
		}
	}
	return blocks(x.children[len(x.keys)], yield)
}

// AppendTo appends every key in ascending order to dst.
func (t *Tree) AppendTo(dst []uint32) []uint32 {
	t.Blocks(func(b []uint32) bool {
		dst = append(dst, b...)
		return true
	})
	return dst
}

// Memory returns estimated resident bytes.
func (t *Tree) Memory() uint64 {
	var walk func(x *node) uint64
	walk = func(x *node) uint64 {
		if x == nil {
			return 0
		}
		m := uint64(cap(x.keys)*4+cap(x.children)*8) + 56
		for _, c := range x.children {
			m += walk(c)
		}
		return m
	}
	return walk(t.root) + 16
}
