package core

import (
	"fmt"
	"slices"

	"lsgraph/internal/obs"
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
// from a CSR: adj[offs[i]:offs[i+1]] is the
// complete, strictly ascending neighbor set of vertex base+i. It is the
// inverse of Snapshot.CSR.
//
// Given a delta (at most one), the load merges it on the way: each vertex's
// run is written once, as its CSR run minus the edges the delta deletes
// plus those it keeps present, and a vertex outside the CSR's range that the
// delta names is loaded from the delta alone. Recovery loads a checkpoint
// and its WAL tail this way (internal/serve). Without one it is a plain load.
//
// A load is a batch whose old runs lie in the CSR (merge.go): workers check
// each named vertex's run and find its delta keys in it, ranges of vertices
// at a time, and the batch's place and write steps then write every run. A
// shard's last page is cut to what the load placed in it. Vertices are
// routed by the shards' own ranges, so a CSR written under another
// shard count or layout — one whose range straddles this graph's shard
// boundaries — loads unchanged. The load refuses, with an error and the
// graph untouched, offsets that are not a monotone cover of adj, a range
// that ends above NumVertices, a run that is not strictly ascending or names
// an ID at or above NumVertices, a delta whose keys are not strictly
// ascending or name such an ID, and a vertex that already has edges when a
// non-empty run or a change names it. Like every update it must not run
// concurrently with reads or other updates.
func (g *Paged) LoadCSR(base uint32, offs []uint64, adj []uint32, delta ...Delta) error {
	if len(offs) == 0 || offs[0] != 0 || offs[len(offs)-1] != uint64(len(adj)) {
		return fmt.Errorf("core: LoadCSR: offsets do not cover the %d adjacency entries", len(adj))
	}
	if len(delta) > 1 {
		return fmt.Errorf("core: LoadCSR: %d deltas; it merges one", len(delta))
	}
	ld := csrLoad{base: base, offs: offs, adj: adj, n: g.n.Load()}
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

	// Find on every shard before anything is written, so a refusal leaves
	// the graph as it was; each shard's jobs and kept keys are the load's
	// own, gone when it returns.
	p := g.Workers()
	scratch := make([]prepScratch, len(g.shards))
	for i := range g.shards {
		sh := &g.shards[i]
		first, end := max(sh.base, lo), uint32(min(uint64(hi), sh.end))
		if first >= end {
			continue
		}
		if err := ld.find(sh, &scratch[i], first, end, p); err != nil {
			return err
		}
	}

	for i := range g.shards { // reserved-only slots of the range get storage
		g.Shard(i).EnsureVertices(n)
	}
	var added uint64
	for i := range g.shards {
		sh := &g.shards[i]
		if len(scratch[i].ranges) == 0 {
			continue
		}
		placed := sh.mergeRuns(&scratch[i], p, loadRange, func(lv uint32) []uint32 {
			if j := uint64(sh.base+lv) - uint64(base); j < uint64(nv) {
				return adj[offs[j]:offs[j+1]]
			}
			return nil
		})
		sh.pub.cutTail()
		sh.m.Add(placed)
		added += placed
	}
	if obs.Enabled() {
		obsEdgesAdded.Add(added)
	}
	return nil
}

// loadRange is how many vertices a LoadCSR worker takes at a time: small
// enough that workers claiming them from one counter share a shard's work
// evenly around its hubs.
const loadRange = 256

// csrLoad is one LoadCSR call: the CSR, the delta and the vertex bound.
type csrLoad struct {
	base uint32
	offs []uint64
	adj  []uint32
	d    Delta
	n    uint32
}

// find is the load's find step on shard sh's vertices [first, end), in
// ranges of loadRange vertices that p workers claim: each vertex's CSR run
// is checked, its delta keys are found in it (findKeys) with the effective
// ones kept in ps.ks, and a vertex whose merged run is not empty gets its
// job. It returns the refusal of the lowest vertex that has one.
func (ld *csrLoad) find(sh *pagedShard, ps *prepScratch, first, end uint32, p int) error {
	keys := ld.d.Keys
	klo, _ := slices.BinarySearch(keys, uint64(first)<<32)
	khi, _ := slices.BinarySearch(keys, uint64(end)<<32)
	ps.ks, ps.jobs = make([]uint64, khi-klo), make([]mergeJob, end-first)
	for lo := 0; lo < int(end-first); lo += loadRange {
		ps.ranges = append(ps.ranges, keyRange{lo: lo, hi: min(lo+loadRange, int(end-first))})
	}
	errs := make([]error, len(ps.ranges))
	ps.eachRange(p, loadRange, func(_ int, r *keyRange) {
		v, jobs := first+uint32(r.lo), ps.jobs[r.lo:r.lo:r.hi]
		j, _ := slices.BinarySearch(keys[klo:khi], uint64(v)<<32)
		for j += klo; v < first+uint32(r.hi); v++ {
			k := j // v's changes: keys[j:k]
			for k < khi && uint32(keys[k]>>32) == v {
				k++
			}
			run, err := ld.checkedRun(v)
			if lv := int(v - sh.base); err == nil && len(run)+k-j > 0 && lv < len(sh.tab) && sh.tab[lv].deg != 0 {
				err = fmt.Errorf("core: LoadCSR: vertex %d already has %d edges", v, sh.tab[lv].deg)
			}
			if err != nil {
				errs[r.lo/loadRange] = err
				return
			}
			eff, deg := findKeys(ps.ks[j-klo:], run, keys[j:k], ld.d.Del[j:k])
			if deg > 0 {
				jobs = append(jobs, mergeJob{lv: v - sh.base, at: uint32(j - klo), eff: uint32(eff), to: vref{deg: uint32(deg)}})
			}
			j = k
		}
		r.nj = len(jobs)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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
