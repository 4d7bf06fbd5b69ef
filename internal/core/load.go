package core

import (
	"fmt"
	"slices"
	"sort"

	"lsgraph/internal/obs"
	"lsgraph/internal/parallel"
)

// Delta is a set of edge changes already reduced to their net effect, the
// form recovery brings its WAL tail to (internal/serve): Keys holds packed
// src<<32|dst edges, strictly ascending, and Del[i] says whether edge Keys[i]
// ends absent (true) or present. An edge appears at most once, so the order
// its changes were made in has been resolved already.
type Delta struct {
	Keys []uint64
	Del  []bool
}

// LoadCSR bulk-loads the adjacency of vertices [base, base+len(offs)-1)
// of a paged graph (NewPaged) from a CSR: adj[offs[i]:offs[i+1]] is the
// complete, strictly ascending neighbor set of vertex base+i. It is the
// inverse of Snapshot.CSR and the one-pass counterpart of the batch
// pipeline's merge: a run is already grouped by vertex and sorted, so each
// goes to a page as it is, with no pack, partition, sort or find.
//
// Given a delta (at most one), the load merges it on the way: each vertex's
// run is written once, as its CSR run minus the edges the delta deletes
// plus those it keeps present, and a vertex outside the CSR's range that the
// delta names is loaded from the delta alone. Recovery loads a checkpoint
// and its WAL tail this way (internal/serve). Without one it is a plain load.
//
// Workers take a shard's named vertices in contiguous shares of about equal
// work, check and write each run in vertex order to pages of their own —
// the last one cut to what the share can still need — and the pages then
// join the shard's arena in vertex order. Vertices are routed by the graph's
// own partition map, so a CSR written under another shard count or layout —
// one whose range straddles this graph's shard boundaries — loads unchanged.
// The load refuses, with an error and the graph untouched, a live graph
// (New: it is built by batches), offsets that are not a monotone cover of
// adj, a range that ends above NumVertices, a run that is not strictly
// ascending or names an ID at or above NumVertices, a delta whose keys are
// not strictly ascending or name such an ID, and a vertex that already has
// edges when a non-empty run or a change names it. Like every update it
// must not run concurrently with reads or other updates.
func (g *Graph) LoadCSR(base uint32, offs []uint64, adj []uint32, delta ...Delta) error {
	if !g.Paged() {
		return fmt.Errorf("core: LoadCSR on a live graph; load into one built by NewPaged")
	}
	if len(offs) == 0 || offs[0] != 0 || offs[len(offs)-1] != uint64(len(adj)) {
		return fmt.Errorf("core: LoadCSR: offsets do not cover the %d adjacency entries", len(adj))
	}
	if len(delta) > 1 {
		return fmt.Errorf("core: LoadCSR: %d deltas; it merges one", len(delta))
	}
	ld := csrLoad{g: g, base: base, offs: offs, adj: adj, n: g.n.Load()}
	if len(delta) == 1 {
		ld.d = delta[0]
	}
	nv, n, keys := len(offs)-1, ld.n, ld.d.Keys
	if nv > 0 && uint64(base)+uint64(nv) > uint64(n) {
		return fmt.Errorf("core: LoadCSR: vertices [%d,%d) outside vertex space [0,%d)", base, uint64(base)+uint64(nv), n)
	}
	if err := ld.d.check(n); err != nil {
		return err
	}
	// The vertices the load names: the CSR's range and the delta's sources.
	lo, hi := base, base+uint32(nv)
	if nv == 0 {
		lo, hi = ^uint32(0), 0
	}
	if len(keys) > 0 {
		lo, hi = min(lo, uint32(keys[0]>>32)), max(hi, uint32(keys[len(keys)-1]>>32)+1)
	}
	if lo >= hi {
		return nil
	}

	// Each shard's share of [lo, hi) in p parts of about equal work, written
	// to private pages; refs holds the runs, their pages numbered per part.
	p, pm := g.workers(), g.pmap.Load()
	ld.lo, ld.refs = lo, make([]vref, hi-lo)
	var parts []loadPart
	for i := range g.shards {
		first, end := max(pm.Starts[i], lo), hi
		if i+1 < len(pm.Starts) {
			end = min(end, pm.Starts[i+1])
		}
		if first < end {
			parts = ld.split(parts, &g.shards[i], first, end, p)
		}
	}
	parallel.Workers(p, func(w int) {
		for i := w; i < len(parts); i += p {
			ld.write(&parts[i])
		}
	})
	for i := range parts {
		if err := parts[i].err; err != nil {
			return err
		}
	}

	g.EnsureVertices(n) // reserved-only slots of the range get storage
	defer g.runDebugValidate()
	var added uint64
	for i := range parts {
		added += ld.stitch(&parts[i])
	}
	for i := range g.shards {
		g.shards[i].pub.m = g.shards[i].m.Load()
	}
	if obs.Enabled() {
		obsEdgesAdded.Add(added)
	}
	return nil
}

// loadPart is one worker's share of a shard's vertices in a LoadCSR: the
// vertices [first, end), at most bound entries merged, and the pages they
// were written to with each page's live entries.
type loadPart struct {
	sh         *shardState
	first, end uint32
	bound      uint64
	pageLen    uint32
	pages      [][]uint32
	live       []uint32
	err        error
}

// csrLoad is one LoadCSR call: the CSR, the delta, the vertex bound, and
// the runs written so far, by vertex from lo.
type csrLoad struct {
	g    *Graph
	base uint32
	offs []uint64
	adj  []uint32
	d    Delta
	n    uint32
	lo   uint32
	refs []vref
}

// work is what the load does for vertices [lo, v): their CSR entries plus
// their delta keys.
func (ld *csrLoad) work(lo, v uint32) uint64 {
	nv := uint32(len(ld.offs) - 1)
	csr := func(v uint32) uint64 { return ld.offs[min(max(v, ld.base), ld.base+nv)-ld.base] }
	key := func(v uint32) int { i, _ := slices.BinarySearch(ld.d.Keys, uint64(v)<<32); return i }
	return csr(v) - csr(lo) + uint64(key(v)-key(lo))
}

// split appends to parts up to p shares of sh's vertices [first, end) of
// about equal work, and sizes sh's pages for what they may add.
func (ld *csrLoad) split(parts []loadPart, sh *shardState, first, end uint32, p int) []loadPart {
	total, from, n0 := ld.work(first, end), first, len(parts)
	for k := 1; k <= p && from < end; k++ {
		to := end
		if k < p {
			to = first + uint32(sort.Search(int(end-first), func(i int) bool {
				return ld.work(first, first+uint32(i)) >= total*uint64(k)/uint64(p)
			}))
		}
		if to > from {
			parts = append(parts, loadPart{sh: sh, first: from, end: to, bound: ld.bound(from, to)})
			from = to
		}
	}
	var bound uint64
	for _, pt := range parts[n0:] {
		bound += pt.bound
	}
	plen := pageLen(sh.m.Load() + bound)
	for i := range parts[n0:] {
		parts[n0+i].pageLen = plen
	}
	return parts
}

// bound is the most entries vertices [from, to) can hold merged: their CSR
// entries plus the delta's present edges.
func (ld *csrLoad) bound(from, to uint32) uint64 {
	keys := ld.d.Keys
	klo, _ := slices.BinarySearch(keys, uint64(from)<<32)
	khi, _ := slices.BinarySearch(keys, uint64(to)<<32)
	b := ld.work(from, to) - uint64(khi-klo)
	for _, d := range ld.d.Del[klo:khi] {
		if !d {
			b++
		}
	}
	return b
}

// write checks and merges the part's vertices in order into pages of its
// own: each run at its bound — CSR run plus present edges — in the page
// being filled, which is opened at the page length or at what the part can
// still need, whichever is less; a run longer than a page gets one of its
// own, exactly its length.
func (ld *csrLoad) write(pt *loadPart) {
	keys, left := ld.d.Keys, pt.bound
	var pg []uint32 // the page being filled, pt.pages[cur]
	cur, used := 0, 0
	j, _ := slices.BinarySearch(keys, uint64(pt.first)<<32)
	for v := pt.first; v < pt.end; v++ {
		k := j // v's changes: keys[j:k]
		for k < len(keys) && uint32(keys[k]>>32) == v {
			k++
		}
		ks, del := keys[j:k], ld.d.Del[j:k]
		j = k
		run, err := ld.checkedRun(v)
		if err == nil && len(run)+len(ks) > 0 && ld.g.Degree(v) != 0 {
			err = fmt.Errorf("core: LoadCSR: vertex %d already has %d edges", v, ld.g.Degree(v))
		}
		if err != nil {
			pt.err = err
			return
		}
		up := len(run)
		for _, d := range del {
			up += 1 - b2i(d)
		}
		if up == 0 {
			continue
		}
		left -= uint64(up)
		if up > int(pt.pageLen) {
			if up = mergedLen(run, ks, del); up > 0 {
				own := make([]uint32, up)
				mergeRun(own, run, ks, del)
				ld.refs[v-ld.lo] = vref{uint32(len(pt.pages)) << pageBits, uint32(up)}
				pt.pages, pt.live = append(pt.pages, own), append(pt.live, uint32(up))
			}
			continue
		}
		if len(pg)-used < up {
			pg, cur, used = make([]uint32, min(uint64(pt.pageLen), uint64(up)+left)), len(pt.pages), 0
			pt.pages, pt.live = append(pt.pages, pg), append(pt.live, 0)
		}
		if got := mergeRun(pg[used:used+up], run, ks, del); got > 0 {
			ld.refs[v-ld.lo] = vref{uint32(cur)<<pageBits | uint32(used), uint32(got)}
			pt.live[cur] += uint32(got)
			used += got
		}
	}
}

// stitch gives the part's pages slots in its shard's arena, in order, and
// points the shard's table at their runs; it returns the entries added.
func (ld *csrLoad) stitch(pt *loadPart) (added uint64) {
	sh, a := pt.sh, &pt.sh.pub
	slots := make([]uint32, len(pt.pages))
	for i, pg := range pt.pages {
		slots[i] = uint32(a.open(pg))
		a.live[slots[i]] = pt.live[i]
		added += uint64(pt.live[i])
	}
	tab := sh.table()
	for v := pt.first; v < pt.end; v++ {
		if r := ld.refs[v-ld.lo]; r.deg > 0 {
			tab[v-sh.base] = vref{slots[r.off>>pageBits]<<pageBits | r.off&pageMask, r.deg}
		}
	}
	a.placed += added
	sh.m.Add(added)
	return added
}

// check validates the delta against the vertex bound n.
func (d Delta) check(n uint32) error {
	if len(d.Del) != len(d.Keys) {
		return fmt.Errorf("core: LoadCSR: delta of %d edges has %d ops", len(d.Keys), len(d.Del))
	}
	for i, k := range d.Keys {
		if i > 0 && k <= d.Keys[i-1] {
			return fmt.Errorf("core: LoadCSR: delta edges not strictly ascending (%d,%d) after (%d,%d)",
				k>>32, uint32(k), d.Keys[i-1]>>32, uint32(d.Keys[i-1]))
		}
		if k>>32 >= uint64(n) || uint32(k) >= n {
			return fmt.Errorf("core: LoadCSR: delta edge (%d,%d) outside vertex space [0,%d)", k>>32, uint32(k), n)
		}
	}
	return nil
}

// checkedRun returns vertex v's run in the CSR — none outside its range —
// after validating it: offsets monotone, neighbors strictly ascending and
// below the vertex bound.
func (ld *csrLoad) checkedRun(v uint32) ([]uint32, error) {
	if v < ld.base || int(v-ld.base) >= len(ld.offs)-1 {
		return nil, nil
	}
	lo, hi := ld.offs[v-ld.base], ld.offs[v-ld.base+1]
	if lo > hi || hi > uint64(len(ld.adj)) {
		return nil, fmt.Errorf("core: LoadCSR: offsets of vertex %d not monotone", v)
	}
	ns := ld.adj[lo:hi]
	for i, u := range ns {
		if i > 0 && u <= ns[i-1] {
			return nil, fmt.Errorf("core: LoadCSR: neighbors of vertex %d not strictly ascending (%d after %d)", v, u, ns[i-1])
		}
	}
	if len(ns) > 0 && ns[len(ns)-1] >= ld.n {
		return nil, fmt.Errorf("core: LoadCSR: edge (%d,%d) outside vertex space [0,%d)", v, ns[len(ns)-1], ld.n)
	}
	return ns, nil
}

// mergeRun writes to dst one vertex's run merged with its changes — ks, the
// vertex's delta keys, ascending, and del their ops: the run minus the edges
// deleted, plus those kept present — and returns its length. dst holds at
// least that: the run plus the present edges will do. Which of the two heads
// comes next is data the CPU cannot predict, so the loop takes it without a
// branch: it writes the smaller head every step and advances the write
// position only when that head is kept.
func mergeRun(dst, run []uint32, ks []uint64, del []bool) int {
	w, i, j := 0, 0, 0
	for i < len(run) && j < len(ks) && w < len(dst) {
		a, b := run[i], uint32(ks[j])
		lt, gt := b2i(a < b), b2i(a > b)
		if a < b {
			b = a
		}
		dst[w] = b
		w += lt | (1 - b2i(del[j]))
		i += 1 - gt
		j += 1 - lt
	}
	w += copy(dst[w:], run[i:])
	for ; j < len(ks) && w < len(dst); j++ {
		if !del[j] {
			dst[w] = uint32(ks[j])
			w++
		}
	}
	return w
}

// mergedLen is the length of the run mergeRun writes.
func mergedLen(run []uint32, ks []uint64, del []bool) int {
	w, i, j := 0, 0, 0
	for i < len(run) && j < len(ks) {
		a, b := run[i], uint32(ks[j])
		lt, gt := b2i(a < b), b2i(a > b)
		w += lt | (1 - b2i(del[j]))
		i += 1 - gt
		j += 1 - lt
	}
	for _, d := range del[j:] {
		w += 1 - b2i(d)
	}
	return w + len(run) - i
}

// b2i is 1 for true, compiled to a flag set, not a branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}
