package main

import (
	"fmt"
	"math"
	"slices"
)

// oracle is the benchmark's own reference: the expected edge set as sorted
// directed keys with a CSR index over it. It shares no code with the program
// under test (nor with refgraph, which a later change may delete).
type oracle struct {
	n    uint32
	keys []uint64
	offs []int // offs[v]..offs[v+1] indexes keys with source v
}

// newOracle builds the expected state: g's base graph plus every batch in
// inserted. Batches are disjoint from the base and from each other, so the
// union needs no deduplication.
func newOracle(g *graph, inserted []batch) *oracle {
	keys := slices.Clone(g.base)
	for _, b := range inserted {
		for i := range b.src {
			keys = append(keys, key(b.src[i], b.dst[i]))
		}
	}
	slices.Sort(keys)
	o := &oracle{n: g.n, keys: keys, offs: make([]int, g.n+1)}
	v := uint32(0)
	for i, k := range keys {
		for s := uint32(k >> 32); v < s; {
			v++
			o.offs[v] = i
		}
	}
	for v < g.n {
		v++
		o.offs[v] = len(keys)
	}
	return o
}

func (o *oracle) edges() uint64 { return uint64(len(o.keys)) }

// neighbors returns v's expected adjacency, ascending.
func (o *oracle) neighbors(v uint32, buf []uint32) []uint32 {
	buf = buf[:0]
	for _, k := range o.keys[o.offs[v]:o.offs[v+1]] {
		buf = append(buf, uint32(k))
	}
	return buf
}

// reached returns how many vertices a breadth-first search from src visits,
// src included.
func (o *oracle) reached(src uint32) int {
	seen := make([]bool, o.n)
	seen[src] = true
	frontier, count := []uint32{src}, 1
	for len(frontier) > 0 {
		var next []uint32
		for _, u := range frontier {
			for _, k := range o.keys[o.offs[u]:o.offs[u+1]] {
				if w := uint32(k); !seen[w] {
					seen[w] = true
					next = append(next, w)
				}
			}
		}
		count += len(next)
		frontier = next
	}
	return count
}

// reader is the read surface every front door offers (Graph, Store and
// StoreView all have it); the checks below run against it.
type reader interface {
	NumEdges() uint64
	NeighborBlocks(v uint32, yield func(block []uint32) bool)
}

// sampleChecks is how many adjacencies checkState compares.
const sampleChecks = 256

// checkState compares the program's edge count and sampleChecks sampled
// adjacencies (the hub always among them) with the oracle.
func (o *oracle) checkState(r reader, hub uint32, seed uint64) error {
	if got := r.NumEdges(); got != o.edges() {
		return fmt.Errorf("edge count %d, oracle has %d", got, o.edges())
	}
	rnd := newRNG(seed, 99)
	var got, want []uint32
	for i := 0; i < sampleChecks; i++ {
		v := hub
		if i > 0 {
			v = uint32(rnd.intn(int(o.n)))
		}
		got = got[:0]
		r.NeighborBlocks(v, func(b []uint32) bool { got = append(got, b...); return true })
		want = o.neighbors(v, want)
		if !slices.Equal(got, want) {
			return fmt.Errorf("vertex %d: %d neighbours differ from the oracle's %d", v, len(got), len(want))
		}
	}
	return nil
}

// checkRanks reports whether a PageRank vector is a probability
// distribution: finite, non-negative and summing to 1±1e-6.
func checkRanks(ranks []float64) error {
	sum := 0.0
	for _, x := range ranks {
		if x < 0 || math.IsNaN(x) {
			return fmt.Errorf("pagerank holds %v", x)
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("pagerank sums to %.9f", sum)
	}
	return nil
}

// reachedCount counts the reached vertices in a BFS parent or level vector
// (unreached entries are -1).
func reachedCount(parents []int32) int {
	n := 0
	for _, p := range parents {
		if p >= 0 {
			n++
		}
	}
	return n
}
