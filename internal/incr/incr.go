// Package incr provides incremental analytics maintained across update
// batches, the usage mode §3.1 of the paper cites to justify the AL-based
// representation: after a batch touches a small fraction of the graph,
// recomputing from scratch wastes work, so these maintainers propagate
// changes only from the touched vertices — which makes their access
// pattern per-vertex random lookups, exactly what LSGraph's per-vertex
// structures serve well.
//
// Insertions are handled truly incrementally. Deletions can invalidate
// monotone state (a shorter path or a smaller label may have flowed
// through the deleted edge), so both maintainers fall back to a full
// recomputation when a deletion might have mattered, the standard safe
// strategy absent KickStarter-style dependency tracking.
package incr

import (
	"sync/atomic"

	"lsgraph/internal/algo"
	"lsgraph/internal/engine"
	"lsgraph/internal/parallel"
)

// CC maintains connected-component labels (minimum vertex ID per
// component) across updates of a symmetrized graph.
type CC struct {
	g    engine.Graph
	p    int
	comp []uint32
	// Recomputes counts full recomputations triggered by deletions.
	Recomputes int
}

// NewCC computes initial labels for g with p workers.
func NewCC(g engine.Graph, p int) *CC {
	return &CC{g: g, p: p, comp: algo.CC(g, p)}
}

// Labels returns the current component labels. Callers must not mutate
// the slice.
func (c *CC) Labels() []uint32 { return c.comp }

// Same reports whether u and v are currently in one component.
func (c *CC) Same(u, v uint32) bool { return c.comp[u] == c.comp[v] }

// OnInsert must be called after the engine ingested the insertion batch;
// it propagates the smaller label across each new edge and onward through
// the graph, touching only vertices whose label changes.
func (c *CC) OnInsert(src, dst []uint32) {
	// Seed frontier: endpoints whose labels differ.
	var frontier []uint32
	seen := map[uint32]bool{}
	for i := range src {
		a, b := src[i], dst[i]
		la, lb := c.comp[a], c.comp[b]
		if la == lb {
			continue
		}
		if la < lb {
			a = b // a is the vertex to lower
		}
		if !seen[a] {
			seen[a] = true
			frontier = append(frontier, a)
		}
		if c.comp[src[i]] < c.comp[dst[i]] {
			c.comp[dst[i]] = c.comp[src[i]]
		} else {
			c.comp[src[i]] = c.comp[dst[i]]
		}
	}
	changed := make([]bool, c.g.NumVertices())
	for len(frontier) > 0 {
		for i := range changed {
			changed[i] = false
		}
		parallel.For(len(frontier), c.p, func(i int) {
			v := frontier[i]
			cv := atomic.LoadUint32(&c.comp[v])
			engine.ForEachNeighbor(c.g, v, func(u uint32) {
				if atomicMin(&c.comp[u], cv) {
					changed[u] = true
				}
			})
		})
		frontier = frontier[:0]
		for v, ok := range changed {
			if ok {
				frontier = append(frontier, uint32(v))
			}
		}
	}
}

// OnDelete must be called after the engine ingested the deletion batch.
// A deletion inside a component may split it, which label propagation
// cannot detect incrementally, so labels are recomputed unless every
// deleted edge connected distinct components already (impossible for a
// previously present edge) — hence any non-empty deletion recomputes.
func (c *CC) OnDelete(src, dst []uint32) {
	if len(src) == 0 {
		return
	}
	c.comp = algo.CC(c.g, c.p)
	c.Recomputes++
}

func atomicMin(addr *uint32, v uint32) bool {
	for {
		old := atomic.LoadUint32(addr)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapUint32(addr, old, v) {
			return true
		}
	}
}

// BFS maintains hop distances from a fixed source across updates of a
// symmetrized graph.
type BFS struct {
	g   engine.Graph
	p   int
	src uint32
	dep []int32
	// Recomputes counts full recomputations triggered by deletions.
	Recomputes int
}

// NewBFS computes initial depths from src with p workers.
func NewBFS(g engine.Graph, src uint32, p int) *BFS {
	return &BFS{g: g, p: p, src: src, dep: algo.BFSLevels(g, src, p)}
}

// Depths returns current hop distances (-1 = unreached). Callers must not
// mutate the slice.
func (b *BFS) Depths() []int32 { return b.dep }

// OnInsert relaxes the new edges and propagates improved distances.
func (b *BFS) OnInsert(src, dst []uint32) {
	var frontier []uint32
	improve := func(v, u uint32) bool {
		dv := b.dep[v]
		if dv < 0 {
			return false
		}
		if du := b.dep[u]; du < 0 || du > dv+1 {
			b.dep[u] = dv + 1
			return true
		}
		return false
	}
	seen := map[uint32]bool{}
	push := func(u uint32) {
		if !seen[u] {
			seen[u] = true
			frontier = append(frontier, u)
		}
	}
	for i := range src {
		if improve(src[i], dst[i]) {
			push(dst[i])
		}
		if improve(dst[i], src[i]) {
			push(src[i])
		}
	}
	// Propagate improvements; each vertex's depth only decreases, so this
	// terminates. Sequential per level for determinism of the improved set.
	for len(frontier) > 0 {
		var next []uint32
		nextSeen := map[uint32]bool{}
		for _, v := range frontier {
			engine.ForEachNeighbor(b.g, v, func(u uint32) {
				if improve(v, u) && !nextSeen[u] {
					nextSeen[u] = true
					next = append(next, u)
				}
			})
		}
		frontier = next
	}
}

// OnDelete recomputes distances when the deleted edges could have carried
// shortest paths (any deletion between reached vertices at adjacent
// depths); deletions that provably did not affect the BFS tree are
// skipped.
func (b *BFS) OnDelete(src, dst []uint32) {
	for i := range src {
		dv, du := b.dep[src[i]], b.dep[dst[i]]
		if dv < 0 || du < 0 {
			continue // edge between/into unreached vertices: irrelevant
		}
		d := dv - du
		if d == 1 || d == -1 {
			// The edge may have been a tree edge; recompute.
			b.dep = algo.BFSLevels(b.g, b.src, b.p)
			b.Recomputes++
			return
		}
	}
}
