package hitree

// Tree is the public face of a Hybrid Indexed Tree: the ordered set of one
// vertex's overflow neighbors. A Tree always has a root node; the root kind
// follows the thresholds of §4.1 (array up to LeafArrayMax, RIA up to M,
// LIA above) and changes automatically as the set grows or shrinks.
type Tree struct {
	root node
	cfg  Config
}

// New returns an empty tree with cfg (zero fields are replaced by
// defaults).
func New(cfg Config) *Tree {
	cfg.sanitize()
	return &Tree{root: newLeafArray(nil), cfg: cfg}
}

// BulkLoad builds a tree from ns, which must be sorted and duplicate-free.
func BulkLoad(ns []uint32, cfg Config) *Tree {
	cfg.sanitize()
	return &Tree{root: bulkLoad(ns, &cfg), cfg: cfg}
}

// Len returns the number of elements.
func (t *Tree) Len() int { return t.root.size() }

// Has reports whether u is present.
func (t *Tree) Has(u uint32) bool { return t.root.has(u) }

// Insert adds u, reporting whether it was absent.
func (t *Tree) Insert(u uint32) bool {
	repl, isNew := t.root.insert(u, &t.cfg)
	t.root = repl
	return isNew
}

// Delete removes u, reporting whether it was present.
func (t *Tree) Delete(u uint32) bool {
	repl, ok := t.root.delete(u)
	t.root = repl
	return ok
}

// Min returns the smallest element; t must be non-empty.
func (t *Tree) Min() uint32 { return t.root.min() }

// DeleteMin removes and returns the smallest element; t must be non-empty.
func (t *Tree) DeleteMin() uint32 {
	m := t.root.min()
	t.Delete(m)
	return m
}

// Blocks yields every element in ascending order as contiguous segments
// aliasing the tree's storage, stopping early when yield returns false and
// reporting whether the walk ran to completion. Segments are valid only
// until yield returns and must not be mutated.
func (t *Tree) Blocks(yield func(block []uint32) bool) bool { return t.root.blocks(yield) }

// AppendTo appends every element in ascending order to dst.
func (t *Tree) AppendTo(dst []uint32) []uint32 { return t.root.appendTo(dst) }

// Memory returns estimated resident bytes of the whole tree.
func (t *Tree) Memory() uint64 { return t.root.memory() + 16 }

// IndexMemory returns the bytes attributable to indexes: RIA index arrays
// plus LIA model coefficients (Table 3's index overhead).
func (t *Tree) IndexMemory() uint64 { return t.root.indexMemory() }

// IsLIARoot reports whether the root is currently a learned internal node;
// the core engine counts RIA→HITree transitions with it.
func (t *Tree) IsLIARoot() bool {
	_, ok := t.root.(*lia)
	return ok
}
