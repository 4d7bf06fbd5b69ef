package hitree

// bnode is the ablation counterpart of lia: an internal node that routes by
// binary search over child separators instead of a learned model. The
// "binary search instead of learned index" version of §6.2 swaps every LIA
// for one of these; everything else (RIA leaves, thresholds, rebuild
// policy) is unchanged, isolating the learned index's contribution.
type bnode struct {
	seps      []uint32 // seps[i] = smallest key of children[i+1]
	children  []node
	total     int
	builtSize int
}

// bnodeFanChunk is the element count per child at construction, sized so
// children are RIA leaves for the default M.
const bnodeFanChunk = 2048

// newBNode bulk-loads sorted, distinct ns into a binary-searched internal
// node with RIA/array children.
func newBNode(ns []uint32, cfg *Config) *bnode {
	chunk := bnodeFanChunk
	if chunk > cfg.M {
		chunk = cfg.M
	}
	if chunk < 2*BlockSize {
		chunk = 2 * BlockSize
	}
	b := &bnode{total: len(ns), builtSize: len(ns)}
	for lo := 0; lo < len(ns); lo += chunk {
		hi := lo + chunk
		if hi > len(ns) {
			hi = len(ns)
		}
		if lo > 0 {
			b.seps = append(b.seps, ns[lo])
		}
		// Children are leaves only: chunk <= M, so bulkLoad cannot recurse
		// into another internal node.
		b.children = append(b.children, bulkLoad(ns[lo:hi], cfg))
	}
	if len(b.children) == 0 {
		b.children = append(b.children, newLeafArray(nil))
	}
	return b
}

// route returns the child index covering key u.
func (b *bnode) route(u uint32) int {
	lo, hi := 0, len(b.seps)
	for lo < hi {
		mid := (lo + hi) / 2
		if b.seps[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (b *bnode) insert(u uint32, cfg *Config) (node, bool) {
	ci := b.route(u)
	child := b.children[ci]
	repl, isNew := child.insert(u, cfg)
	b.children[ci] = repl
	if isNew {
		b.total++
		if float64(b.total) > cfg.RebuildFactor*float64(b.builtSize) {
			ns := b.appendTo(make([]uint32, 0, b.total))
			return bulkLoad(ns, cfg), true
		}
	}
	return b, isNew
}

func (b *bnode) delete(u uint32) (node, bool) {
	ci := b.route(u)
	repl, ok := b.children[ci].delete(u)
	b.children[ci] = repl
	if ok {
		b.total--
	}
	return b, ok
}

func (b *bnode) has(u uint32) bool { return b.children[b.route(u)].has(u) }

func (b *bnode) blocks(yield func([]uint32) bool) bool {
	for _, c := range b.children {
		if !c.blocks(yield) {
			return false
		}
	}
	return true
}

func (b *bnode) appendTo(dst []uint32) []uint32 { return appendBlocks(b, dst) }

func (b *bnode) size() int   { return b.total }
func (b *bnode) min() uint32 { return b.children[0].min() }

func (b *bnode) memory() uint64 {
	m := uint64(len(b.seps)*4+len(b.children)*16) + 48
	for _, c := range b.children {
		m += c.memory()
	}
	return m
}

func (b *bnode) indexMemory() uint64 {
	m := uint64(len(b.seps) * 4)
	for _, c := range b.children {
		m += c.indexMemory()
	}
	return m
}
