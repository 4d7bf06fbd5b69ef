package main

import (
	"math"
	"slices"
	"sort"
)

// The benchmark owns its inputs: everything the program under test receives
// is produced here from -seed alone, so a later change to internal/gen cannot
// move a number.

// rng is xorshift64* seeded through splitmix64. Streams with the same seed
// and different stream numbers are independent.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	z := seed*0x9e3779b97f4a7c15 + stream*0xd1342543de82ef95 + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	return &rng{s: z}
}

func (r *rng) next() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545f4914f6cdd1d
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int((r.next() >> 32) * uint64(n) >> 32) }

func shuffle[T any](r *rng, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

func key(src, dst uint32) uint64 { return uint64(src)<<32 | uint64(dst) }

func unkey(k uint64) (src, dst uint32) { return uint32(k >> 32), uint32(k) }

// rmatPair draws one edge from the recursive-matrix distribution with the
// paper's quadrant probabilities a=.5, b=c=.1 (d=.3) over 2^scale vertices.
func rmatPair(r *rng, scale int) (u, v uint32) {
	for i := 0; i < scale; i++ {
		u <<= 1
		v <<= 1
		switch p := r.float(); {
		case p < 0.5:
		case p < 0.6:
			v |= 1
		case p < 0.7:
			u |= 1
		default:
			u |= 1
			v |= 1
		}
	}
	return u, v
}

// rmatPairs draws until it holds want distinct undirected pairs (u < v, no
// self-loops) that are absent from the sorted directed key set exclude, and
// returns them as keys in seeded random order.
func rmatPairs(r *rng, scale, want int, exclude []uint64) []uint64 {
	var pairs []uint64
	for len(pairs) < want {
		for i := want - len(pairs) + want/16 + 16; i > 0; i-- {
			u, v := rmatPair(r, scale)
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			k := key(u, v)
			if _, in := slices.BinarySearch(exclude, k); !in {
				pairs = append(pairs, k)
			}
		}
		slices.Sort(pairs)
		pairs = slices.Compact(pairs)
	}
	shuffle(r, pairs)
	return pairs[:want]
}

// graph is one generated input graph plus the update and read traffic drawn
// for it. All of it exists before any timer starts.
type graph struct {
	n uint32
	// base is the symmetrised, deduplicated rMat graph as sorted directed
	// keys: the oracle's copy.
	base []uint64
	// src, dst are base in seeded random order: the program's copy.
	src, dst []uint32
	// hub is the highest-degree vertex (lowest ID on ties), the BFS source.
	hub uint32
}

// newGraph draws 10·2^scale rMat edges, drops self-loops, symmetrises and
// deduplicates them.
func newGraph(seed uint64, scale int) *graph {
	r := newRNG(seed, 1)
	draws := 10 << scale
	keys := make([]uint64, 0, 2*draws)
	for i := 0; i < draws; i++ {
		u, v := rmatPair(r, scale)
		if u != v {
			keys = append(keys, key(u, v), key(v, u))
		}
	}
	slices.Sort(keys)
	keys = slices.Clip(slices.Compact(keys))
	g := &graph{n: 1 << scale, base: keys}
	g.src, g.dst = columns(keys)
	shuffleEdges(r, g.src, g.dst)
	best, run := 0, 0
	for i, k := range keys {
		if i > 0 && k>>32 == keys[i-1]>>32 {
			run++
		} else {
			run = 1
		}
		if run > best {
			best, g.hub = run, uint32(k>>32)
		}
	}
	return g
}

func columns(keys []uint64) (src, dst []uint32) {
	src, dst = make([]uint32, len(keys)), make([]uint32, len(keys))
	for i, k := range keys {
		src[i], dst[i] = unkey(k)
	}
	return src, dst
}

func shuffleEdges(r *rng, src, dst []uint32) {
	for i := len(src) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		src[i], src[j] = src[j], src[i]
		dst[i], dst[j] = dst[j], dst[i]
	}
}

// batch is one update batch in the engine's columnar layout. Every batch of
// a run is disjoint from the base graph and from every other batch, and holds
// both directions of each of its pairs, so an insert adds exactly len(src)
// edges, the matching delete removes exactly those, the graph stays
// symmetric, and the final state does not depend on how concurrent clients
// interleave.
type batch struct{ src, dst []uint32 }

// newBatches draws count batches of size directed edges (size must be even)
// for g from the given stream.
func newBatches(seed, stream uint64, scale int, g *graph, count, size int) []batch {
	r := newRNG(seed, stream)
	pairs := rmatPairs(r, scale, count*size/2, g.base)
	out := make([]batch, count)
	for b := range out {
		src, dst := make([]uint32, 0, size), make([]uint32, 0, size)
		for _, k := range pairs[b*size/2 : (b+1)*size/2] {
			u, v := unkey(k)
			src, dst = append(src, u, v), append(dst, v, u)
		}
		shuffleEdges(r, src, dst)
		out[b] = batch{src, dst}
	}
	return out
}

// zipfVertices draws count vertex IDs from Zipf(0.99) over [0, n) by exact
// inverse CDF. Rank r is vertex r: rMat puts its hubs at the low IDs, so the
// popular vertices are also the high-degree ones.
func zipfVertices(seed, stream uint64, n uint32, count int) []uint32 {
	r := newRNG(seed, stream)
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), 0.99)
		cdf[i] = sum
	}
	out := make([]uint32, count)
	for i := range out {
		v := sort.SearchFloat64s(cdf, r.float()*sum)
		out[i] = uint32(min(v, int(n)-1))
	}
	return out
}
