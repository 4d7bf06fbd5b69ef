// Package gen produces the synthetic workloads used throughout the
// evaluation: the rMat recursive-matrix generator (the paper's update source
// and its RM dataset), the graph500 Kronecker parameters, uniform random
// graphs, and a temporal power-law stream that stands in for the real-world
// streaming datasets of Table 4.
//
// All generators are deterministic given a seed so experiments are
// reproducible run to run.
package gen

import "sort"

// Edge is a directed edge (Src -> Dst). The engines treat symmetrization as
// the caller's job, matching the paper's use of symmetrized inputs.
type Edge struct {
	Src, Dst uint32
}

// Key packs the edge into a single comparable integer with Src in the high
// half, the sort order used by batch updates.
func (e Edge) Key() uint64 { return uint64(e.Src)<<32 | uint64(e.Dst) }

// FromKey unpacks a packed edge key.
func FromKey(k uint64) Edge { return Edge{Src: uint32(k >> 32), Dst: uint32(k)} }

// RNG is a small xoshiro256**-style generator; having our own keeps the
// streams stable across Go releases.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via splitmix64.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next pseudo-random value.
func (r *RNG) Uint64() uint64 {
	res := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return res
}

// Uint32n returns a uniform value in [0, n).
func (r *RNG) Uint32n(n uint32) uint32 {
	return uint32((r.Uint64() >> 32) * uint64(n) >> 32)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// RMat draws edges from the recursive-matrix distribution over an
// n = 2^scale vertex square with quadrant probabilities a, b, c
// (d = 1-a-b-c). The paper's update batches and its RM dataset use
// a=0.5, b=c=0.1, d=0.3; graph500 uses a=0.57, b=c=0.19, d=0.05.
type RMat struct {
	Scale   uint
	A, B, C float64
	rng     *RNG
}

// NewRMat returns an rMat generator for 2^scale vertices.
func NewRMat(scale uint, a, b, c float64, seed uint64) *RMat {
	return &RMat{Scale: scale, A: a, B: b, C: c, rng: NewRNG(seed)}
}

// NewRMatPaper returns the generator with the paper's parameters
// (a=0.5, b=c=0.1), used both for the RM dataset and for update batches.
func NewRMatPaper(scale uint, seed uint64) *RMat {
	return NewRMat(scale, 0.5, 0.1, 0.1, seed)
}

// NewGraph500 returns the generator with graph500 Kronecker parameters.
func NewGraph500(scale uint, seed uint64) *RMat {
	return NewRMat(scale, 0.57, 0.19, 0.19, seed)
}

// Edge draws one edge.
func (g *RMat) Edge() Edge {
	var src, dst uint32
	ab := g.A + g.B
	abc := ab + g.C
	for i := uint(0); i < g.Scale; i++ {
		src <<= 1
		dst <<= 1
		p := g.rng.Float64()
		switch {
		case p < g.A:
			// top-left: no bits set
		case p < ab:
			dst |= 1
		case p < abc:
			src |= 1
		default:
			src |= 1
			dst |= 1
		}
	}
	return Edge{Src: src, Dst: dst}
}

// Edges draws m edges. Self-loops are skipped (redrawn) since the analytics
// kernels assume simple graphs.
func (g *RMat) Edges(m int) []Edge {
	es := make([]Edge, 0, m)
	for len(es) < m {
		e := g.Edge()
		if e.Src == e.Dst {
			continue
		}
		es = append(es, e)
	}
	return es
}

// Uniform draws m uniform random edges over n vertices, no self-loops.
func Uniform(n uint32, m int, seed uint64) []Edge {
	rng := NewRNG(seed)
	es := make([]Edge, 0, m)
	for len(es) < m {
		s, d := rng.Uint32n(n), rng.Uint32n(n)
		if s == d {
			continue
		}
		es = append(es, Edge{Src: s, Dst: d})
	}
	return es
}

// Symmetrize returns the union of es and its reversal, deduplicated and
// sorted, matching the paper's symmetrized inputs.
func Symmetrize(es []Edge) []Edge {
	ks := make([]uint64, 0, 2*len(es))
	for _, e := range es {
		ks = append(ks, e.Key(), Edge{Src: e.Dst, Dst: e.Src}.Key())
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	out := make([]Edge, 0, len(ks))
	var prev uint64 = ^uint64(0)
	for _, k := range ks {
		if k == prev {
			continue
		}
		prev = k
		out = append(out, FromKey(k))
	}
	return out
}

// MaxVertex returns 1 + the largest vertex ID referenced in es, i.e. the
// number of vertex slots the engines must allocate.
func MaxVertex(es []Edge) uint32 {
	var m uint32
	for _, e := range es {
		if e.Src >= m {
			m = e.Src + 1
		}
		if e.Dst >= m {
			m = e.Dst + 1
		}
	}
	return m
}
