// Package core implements the LSGraph engine itself (§4-§5) and the paged
// graph a Store serves. Graph is the paper's engine: one cache-line vertex
// block per vertex holding the degree, the L smallest neighbors inline, and
// a pointer to an overflow structure chosen by degree (sorted array up to
// L+A, RIA up to L+M, HITree above), updated in place by the sorted,
// grouped, per-vertex-parallel batch updater of §5. Paged keeps each
// vertex's neighbors as one immutable run in pages its published snapshots
// share. The two share the vertex bound, the worker budget and the batch
// pipeline up to the per-group stage. A Graph is one vertex range with one
// pipeline; a Paged is cut into shards, each with its own range and
// pipeline, whose boundaries move.
package core

import "math"

// inlineCap is the number of neighbor slots in a vertex block. The paper
// sizes vertex blocks to one 64-byte cache line: 4 B degree + 13 × 4 B
// inline edges + 8 B overflow pointer = 64 B. This is the threshold L.
const inlineCap = 13

// OverflowKind names the structure holding a vertex's non-inline neighbors,
// for ablation configuration and introspection.
type OverflowKind uint8

// Overflow structure choices.
const (
	// KindAuto picks by degree per §4.1: array, then RIA, then HITree.
	KindAuto OverflowKind = iota
	// KindRIAOnly disables HITree (M treated as infinite); the ablation
	// isolating HITree's contribution.
	KindRIAOnly
	// KindPMA replaces RIA and HITree with a per-vertex packed memory
	// array; the ablation isolating RIA's contribution.
	KindPMA
)

// Config carries the engine parameters of §5 for a Graph. Zero values take
// defaults.
type Config struct {
	// Alpha is the space amplification factor α (default 1.2).
	Alpha float64
	// ArrayMax is the paper's A: overflow sets up to this size use a plain
	// sorted array (default two cache lines = 32).
	ArrayMax int
	// M is the RIA→HITree threshold (default 4096 = 2^12).
	M int
	// Workers bounds parallelism during batch updates (default GOMAXPROCS).
	Workers int
	// Shards cuts the vertex space into this many contiguous ranges for
	// the Shard handles (default 1), and changes nothing else: a Graph is
	// one vertex array and one pipeline whatever Shards is, and a handle's
	// batches run that pipeline on 1/Shards of the workers. The ranges
	// exist for what benchmark/layers.go times of a Store's update, one
	// layer at a time: ScatterBatch, PartitionMap, and the Shard handle's
	// EnsureVertices, InsertBatch, DeleteBatch, SnapshotInto and Base. Their
	// boundaries never move. It goes once the benchmark times the Store's
	// own paged shards (ROADMAP item 1(a)).
	Shards int
	// Overflow selects the overflow structure policy (ablations).
	Overflow OverflowKind
	// DisableModel replaces LIA learned internal nodes with binary-searched
	// internal nodes inside HITree; the ablation isolating the learned
	// index's contribution.
	DisableModel bool
}

func (c *Config) sanitize() {
	if c.Alpha <= 1.0 {
		c.Alpha = 1.2
	}
	if c.ArrayMax <= 0 {
		c.ArrayMax = 32
	}
	if c.M <= 0 {
		c.M = 4096
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Overflow == KindRIAOnly {
		c.M = math.MaxInt32
	}
}
