package core

import "slices"

// The update path of a paged shard (NewPaged) — one whose storage is its
// table over its page arena. The pipeline's pack,
// partition, sort, dedup and grouping are the live shard's; only the last
// stage differs. There is no structure to update in place: a vertex's
// adjacency is one immutable run that readers of published snapshots may
// hold, so a batch gives every vertex it changes a new run — the old run
// merged with the vertex's group — at the arena's batch tail, and points the
// shard's table at it. A publish of the live structures did that for every
// vertex a batch named, by flattening the structure the batch had just
// updated; here the merge is the update.
//
// A batch runs in three steps. Find (per group, by the worker that owns its
// range): locate every key in the vertex's current run; the keys that change
// it — absent ones of an insert, present ones of a delete — are kept, each
// rewritten in place as position‖neighbor, and counted. Place (sequential, in
// vertex order: the arena has one owner): reserve each changed vertex's new
// run, whose length is now known. Write (per range, in parallel): copy the
// stretches of the old run between the kept keys' positions and put in, or
// leave out, the keys — a hub costs one pass of copy, as its flatten did.
// Then the old runs are dropped and the table patched.

// mergeJob is one vertex's share of a batch on a paged shard.
type mergeJob struct {
	lv  uint32 // the vertex's slot
	at  uint32 // where its kept keys start in its range's key buffer
	eff uint32 // how many: the edges the batch adds to, or removes from, the run
	to  vref   // the run reserved for the merged adjacency
}

// findAbsent is an insert's per-group stage on a paged shard: it keeps
// the keys not yet in the vertex's run and returns their number.
func (g *Graph) findAbsent(sh *shardState, _ int, lv uint32, ks []uint64) uint64 {
	return findKeys(sh.pub.read(sh.tab[lv]), ks, false)
}

// findPresent is a delete's: it keeps the keys the run holds.
func (g *Graph) findPresent(sh *shardState, _ int, lv uint32, ks []uint64) uint64 {
	return findKeys(sh.pub.read(sh.tab[lv]), ks, true)
}

// findKeys looks each of one vertex's ascending keys up in its ascending
// run. The keys whose presence equals keep are moved to the front of ks with
// their source half replaced by the index in run of the first neighbor not
// below them; it returns how many there are.
func findKeys(run []uint32, ks []uint64, keep bool) uint64 {
	pos, eff := 0, 0
	for _, k := range ks {
		i, found := slices.BinarySearch(run[pos:], uint32(k))
		pos += i
		if found == keep {
			ks[eff] = uint64(pos)<<32 | uint64(uint32(k))
			eff++
		}
	}
	return uint64(eff)
}

// mergeRuns gives every vertex the batch changes its new run: the jobs the
// find stage left in sh.prep (changed edges in all) are placed, written by p
// workers and patched into the table. The arena's live count is set first, so
// pages are sized for the shard as the batch leaves it.
func (sh *shardState) mergeRuns(p, limit int, del bool, changed uint64) {
	ps, a, tab := &sh.prep, &sh.pub, sh.table()
	a.m = sh.m.Load() + changed
	if del {
		a.m = sh.m.Load() - changed
	}
	for i := range ps.ranges {
		r := &ps.ranges[i]
		for j := range ps.jobs[r.lo : r.lo+r.nj] {
			jb := &ps.jobs[r.lo+j]
			deg := tab[jb.lv].deg + jb.eff
			if del {
				deg = tab[jb.lv].deg - jb.eff
			}
			jb.to = a.place(deg, tailBatch)
		}
	}
	ps.eachRange(p, limit, func(_ int, r *keyRange) {
		ks := ps.ks
		if r.alt {
			ks = ps.tmp
		}
		for _, jb := range ps.jobs[r.lo : r.lo+r.nj] {
			mergeWrite(a.read(jb.to), a.read(tab[jb.lv]), ks[jb.at:jb.at+jb.eff], del)
		}
	})
	for i := range ps.ranges {
		r := &ps.ranges[i]
		for _, jb := range ps.jobs[r.lo : r.lo+r.nj] {
			a.drop(tab[jb.lv])
			tab[jb.lv] = jb.to
		}
	}
}

// mergeWrite fills dst with old plus (or, with del, minus) the neighbors of
// ks, whose upper halves are their positions in old (findKeys).
func mergeWrite(dst, old []uint32, ks []uint64, del bool) {
	from := 0
	for _, k := range ks {
		pos := int(k >> 32)
		dst = dst[copy(dst, old[from:pos]):]
		if from = pos; del {
			from++
		} else {
			dst[0] = uint32(k)
			dst = dst[1:]
		}
	}
	copy(dst, old[from:])
}
