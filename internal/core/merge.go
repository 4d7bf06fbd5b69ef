package core

// The write path of a Paged shard, whose storage is its table over its page
// arena. There is no structure to update in place: a vertex's adjacency is
// one immutable run that readers of published snapshots may hold, so every
// vertex a batch or a load changes gets a new run — its old run merged with
// its changes — at the arena's batch tail, and the shard's table is pointed
// at it. A batch's old runs are the shard's own and its changes one group of
// the pipeline each (pack, partition, sort, dedup and grouping are a Graph
// shard's; only the per-group stage differs); a load's (LoadCSR) old runs
// lie in the caller's CSR and its changes in a Delta.
//
// Both run the same three steps. Find (per group or per range of vertices,
// in parallel): locate every change in the vertex's old run; the ones that
// change it — a delete of a present neighbor, an insert of an absent one —
// are kept, each written as position‖neighbor, and the vertex's merged
// degree is recorded. Place (sequential, in vertex order: the arena has one
// owner): reserve each changed vertex's new run, whose length is now known.
// Write (per range, in parallel): copy the stretches of the old run between
// the kept keys' positions; a kept key equal to the old run's entry at its
// position is a delete and is left out, any other is an insert and is put
// in. Because find keeps only effective keys this is exact for one op or
// for mixed ones, and a hub costs one pass of copy. Then the old runs are
// dropped and the table patched.

// mergeJob is one vertex's share of a merge on a Paged shard.
type mergeJob struct {
	lv  uint32 // the vertex's slot
	at  uint32 // where its kept keys start in the key buffer
	eff uint32 // how many: the edges the merge adds to the run or removes from it
	to  vref   // the merged run: its degree set by find, its place by place
}

// findKeys looks each of one vertex's ascending keys up in its ascending run
// and writes the keys that change it — a delete of a present neighbor, an
// insert of an absent one — to the front of out, each with its source half
// replaced by the index in run of the first neighbor not below it; out may be
// ks. del holds each key's op, true for a delete, or one op for all of them.
// It returns how many keys it wrote and the run's length once they are
// applied.
func findKeys(out []uint64, run []uint32, ks []uint64, del []bool) (eff, deg int) {
	walked := dense(len(run), len(ks))
	if walked {
		// One walk of run and keys together; each step passes the smaller
		// head, and a key's position is rewritten until it is passed.
		i, j := 0, 0
		for i < len(run) && j < len(ks) {
			x, lt := uint32(ks[j]), 0
			out[j] = uint64(i)<<32 | uint64(x)
			if run[i] < x {
				lt = 1
			}
			i, j = i+lt, j+1-lt
		}
		for ; j < len(ks); j++ {
			out[j] = uint64(len(run))<<32 | uint64(uint32(ks[j]))
		}
		ks = out[:len(ks)]
	}
	pos, deg := 0, len(run)
	for j, k := range ks {
		x := uint32(k)
		if walked {
			pos = int(k >> 32)
		} else {
			pos += below(run[pos:], uint64(x))
		}
		found := pos < len(run) && run[pos] == x
		if found == del[min(j, len(del)-1)] {
			out[eff] = uint64(pos)<<32 | uint64(x)
			eff++
			if found {
				deg--
			} else {
				deg++
			}
		}
	}
	return eff, deg
}

// dense reports whether findKeys and mergeWrite walk a run of n entries that
// k keys change entry by entry, each step without a branch the data decides,
// rather than search it and copy it a stretch per key: when there are at
// least 4 keys and fewer than 8 entries a key, as a checkpoint's runs under a
// log tail mostly have. There a search and a copy call per key cost more
// than the walk, most of it the branches they mispredict; a batch's one or
// two keys at a vertex, or its few at a hub, cost less searched and copied
// (EXPERIMENTS.md, "One merge").
func dense(n, k int) bool { return k >= 4 && n < 8*k }

// mergeRuns gives every vertex a merge changes its new run: the jobs find
// left in ps's ranges are placed in vertex order, written by p workers from
// the vertex's old run (old) and its kept keys, and patched into the table.
// The arena's live count is set first, so pages are sized for the shard as
// the merge leaves it. It returns the entries it placed.
func (sh *pagedShard) mergeRuns(ps *prepScratch, p, limit int, old func(lv uint32) []uint32) (placed uint64) {
	a, tab := &sh.pub, sh.table()
	jobs := func(r *keyRange) []mergeJob { return ps.jobs[r.lo : r.lo+r.nj] }
	a.m = sh.m.Load()
	for i := range ps.ranges {
		for _, jb := range jobs(&ps.ranges[i]) {
			a.m += uint64(jb.to.deg) - uint64(tab[jb.lv].deg)
		}
	}
	for i := range ps.ranges {
		js := jobs(&ps.ranges[i])
		for j := range js {
			js[j].to = a.place(js[j].to.deg, tailBatch)
			placed += uint64(js[j].to.deg)
		}
	}
	ps.eachRange(p, limit, func(_ int, r *keyRange) {
		ks := ps.ks
		if r.alt {
			ks = ps.tmp
		}
		for _, jb := range jobs(r) {
			mergeWrite(a.read(jb.to), old(jb.lv), ks[jb.at:jb.at+jb.eff])
		}
	})
	for i := range ps.ranges {
		for _, jb := range jobs(&ps.ranges[i]) {
			a.drop(tab[jb.lv])
			tab[jb.lv] = jb.to
		}
	}
	return placed
}

// mergeWrite fills dst with old changed by ks, whose upper halves are their
// positions in old (findKeys): a key equal to the neighbor at its position is
// a delete, any other an insert. It copies the stretches between the keys or,
// where they are dense, walks old entry by entry.
func mergeWrite(dst, old []uint32, ks []uint64) {
	if !dense(len(old), len(ks)) {
		from, w := 0, 0
		for _, k := range ks {
			pos := int(k >> 32)
			w += copy(dst[w:], old[from:pos])
			if from = pos; pos < len(old) && old[pos] == uint32(k) {
				from++
			} else {
				dst[w] = uint32(k)
				w++
			}
		}
		copy(dst[w:], old[from:])
		return
	}
	// Each step writes old[i] or, where a key sits at i, the key, and
	// advances past what it wrote; a delete writes nothing that stays.
	i, j, w := 0, 0, 0
	for i < len(old) && j < len(ks) && w < len(dst) {
		k := ks[j]
		v, at, del := old[i], 0, 0
		if int(k>>32) == i {
			at = 1
		}
		if v == uint32(k) {
			del = at
		}
		if at == 1 {
			v = uint32(k)
		}
		dst[w] = v
		i, j, w = i+1-at+del, j+at, w+1-del
	}
	for ; j < len(ks); j++ { // inserts past old's last neighbor
		if int(ks[j]>>32) == len(old) {
			dst[w] = uint32(ks[j])
			w++
		}
	}
	copy(dst[w:], old[i:])
}
