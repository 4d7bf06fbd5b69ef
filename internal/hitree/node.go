// Package hitree implements LSGraph's Hybrid Indexed Tree (§3.2, §4.2):
// internal nodes are Learned Indexed Arrays (LIA) whose position conflicts
// are absorbed first by bounded in-block horizontal movement and then by
// creating child nodes (vertical movement); leaves are RIAs or plain sorted
// arrays. BulkLoad, Insert and Delete follow Algorithms 1 and 2; Blocks is
// the in-order traversal.
package hitree

import (
	"lsgraph/internal/ria"
)

// BlockSize re-exports the cache-line block size shared with RIA.
const BlockSize = ria.BlockSize

// Config carries the tuning knobs of §5. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// Alpha is the space amplification factor α (default 1.2).
	Alpha float64
	// M is the RIA-vs-LIA threshold: a node bulk-loaded from at most M
	// elements becomes an RIA leaf, larger ones become LIA internal nodes
	// (default 4096 = 2^12).
	M int
	// LeafArrayMax is the size up to which a child is a plain sorted array
	// rather than an RIA (two cache lines by default, the paper's A).
	LeafArrayMax int
	// RebuildFactor triggers a subtree rebuild when an LIA's subtree grows
	// past RebuildFactor × its size at construction, bounding tree depth
	// under sustained insertion (an ALEX/LIPP-style structural adjustment).
	RebuildFactor float64
	// DisableModel replaces LIA learned internal nodes with binary-searched
	// internal nodes; the §6.2 ablation isolating the learned index.
	DisableModel bool
}

// DefaultConfig returns the paper's defaults (§5).
func DefaultConfig() Config {
	return Config{Alpha: 1.2, M: 4096, LeafArrayMax: 2 * BlockSize, RebuildFactor: 4}
}

func (c *Config) sanitize() {
	if c.Alpha <= 1.0 {
		c.Alpha = 1.2
	}
	if c.M < BlockSize {
		c.M = 4096
	}
	if c.LeafArrayMax < 4 {
		c.LeafArrayMax = 2 * BlockSize
	}
	if c.RebuildFactor < 1.5 {
		c.RebuildFactor = 4
	}
}

// node is one HITree node: a plain sorted array, an RIA, or an LIA.
// Mutating operations return the (possibly replaced) node so parents can
// re-link conversions (array→RIA, RIA→LIA, LIA rebuild).
type node interface {
	insert(u uint32, cfg *Config) (node, bool)
	delete(u uint32) (node, bool)
	has(u uint32) bool
	// blocks is the node's one in-order walk: it yields ascending
	// contiguous segments of the node's elements aliasing its backing
	// storage (the engine-wide NeighborBlocks contract) and reports
	// whether the walk ran to completion.
	blocks(yield func(block []uint32) bool) bool
	// appendTo bulk-copies every element out for the write path's
	// rebuilds: a plain append on flat leaves, appendBlocks on internal
	// nodes.
	appendTo(dst []uint32) []uint32
	size() int
	min() uint32
	memory() uint64
	indexMemory() uint64
}

// appendBlocks is appendTo for internal nodes: one append per block of the
// node's in-order walk.
func appendBlocks(n node, dst []uint32) []uint32 {
	n.blocks(func(b []uint32) bool {
		dst = append(dst, b...)
		return true
	})
	return dst
}

// bulkLoad builds the right node kind for the sorted, duplicate-free ns
// (Algorithm 1, line 1 plus the plain-array leaf of Figure 9 ④).
func bulkLoad(ns []uint32, cfg *Config) node {
	switch {
	case len(ns) <= cfg.LeafArrayMax:
		return newLeafArray(ns)
	case len(ns) <= cfg.M:
		return (*riaNode)(ria.BulkLoad(ns, cfg.Alpha))
	case cfg.DisableModel:
		return newBNode(ns, cfg)
	default:
		return newLIA(ns, cfg)
	}
}

// leafArray is a plain sorted array leaf with geometric growth.
type leafArray struct {
	data []uint32
}

func newLeafArray(ns []uint32) *leafArray {
	l := &leafArray{data: make([]uint32, len(ns))}
	copy(l.data, ns)
	return l
}

func (l *leafArray) insert(u uint32, cfg *Config) (node, bool) {
	d := l.data
	lo, hi := 0, len(d)
	for lo < hi {
		mid := (lo + hi) / 2
		if d[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(d) && d[lo] == u {
		return l, false
	}
	d = append(d, 0)
	copy(d[lo+1:], d[lo:])
	d[lo] = u
	l.data = d
	if len(d) > cfg.LeafArrayMax {
		// Promote to an RIA leaf once past the plain-array threshold.
		return (*riaNode)(ria.BulkLoad(d, cfg.Alpha)), true
	}
	return l, true
}

func (l *leafArray) delete(u uint32) (node, bool) {
	d := l.data
	lo, hi := 0, len(d)
	for lo < hi {
		mid := (lo + hi) / 2
		if d[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(d) || d[lo] != u {
		return l, false
	}
	l.data = append(d[:lo], d[lo+1:]...)
	return l, true
}

func (l *leafArray) has(u uint32) bool {
	d := l.data
	lo, hi := 0, len(d)
	for lo < hi {
		mid := (lo + hi) / 2
		if d[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(d) && d[lo] == u
}

func (l *leafArray) blocks(yield func([]uint32) bool) bool {
	if len(l.data) == 0 {
		return true
	}
	return yield(l.data[:len(l.data):len(l.data)])
}

func (l *leafArray) appendTo(dst []uint32) []uint32 { return append(dst, l.data...) }
func (l *leafArray) size() int                      { return len(l.data) }
func (l *leafArray) min() uint32                    { return l.data[0] }
func (l *leafArray) memory() uint64                 { return uint64(cap(l.data)*4 + 24) }
func (l *leafArray) indexMemory() uint64            { return 0 }

// riaNode adapts ria.RIA to the node interface. Promotion to LIA when the
// leaf outgrows M is handled here so Algorithm 2's BulkLoad-on-expand
// (lines 10-12) can yield an LIA exactly as the paper describes.
type riaNode ria.RIA

func (r *riaNode) ria() *ria.RIA { return (*ria.RIA)(r) }

func (r *riaNode) insert(u uint32, cfg *Config) (node, bool) {
	isNew := r.ria().Insert(u)
	if isNew && r.ria().Len() > cfg.M {
		ns := r.ria().AppendTo(make([]uint32, 0, r.ria().Len()))
		if cfg.DisableModel {
			return newBNode(ns, cfg), true
		}
		return newLIA(ns, cfg), true
	}
	return r, isNew
}

func (r *riaNode) delete(u uint32) (node, bool) {
	ok := r.ria().Delete(u)
	return r, ok
}

func (r *riaNode) has(u uint32) bool                     { return r.ria().Has(u) }
func (r *riaNode) blocks(yield func([]uint32) bool) bool { return r.ria().Blocks(yield) }
func (r *riaNode) appendTo(dst []uint32) []uint32        { return r.ria().AppendTo(dst) }
func (r *riaNode) size() int                             { return r.ria().Len() }
func (r *riaNode) min() uint32                           { return r.ria().Min() }
func (r *riaNode) memory() uint64                        { return r.ria().Memory() }
func (r *riaNode) indexMemory() uint64                   { return r.ria().IndexMemory() }
