package bench

import (
	"time"

	"lsgraph/internal/aspen"
	"lsgraph/internal/core"
	"lsgraph/internal/engine"
	"lsgraph/internal/pactree"
	"lsgraph/internal/terrace"
)

// EngineNames lists the four systems in the paper's presentation order.
var EngineNames = []string{"LSGraph", "Terrace", "Aspen", "PaC-tree"}

// NewEngine constructs the named engine with n vertex slots.
func NewEngine(name string, n uint32, workers int) engine.Engine {
	switch name {
	case "LSGraph":
		return core.New(n, core.Config{Workers: workers})
	case "Terrace":
		return terrace.New(n, workers)
	case "Aspen":
		return aspen.New(n, workers)
	case "PaC-tree":
		return pactree.New(n, workers)
	default:
		panic("bench: unknown engine " + name)
	}
}

// Loaded returns the named engine preloaded with the dataset.
func Loaded(name string, d *Dataset, workers int) engine.Engine {
	e := NewEngine(name, d.N, workers)
	e.InsertBatch(Split(d.Edges))
	return e
}

// loadedAll returns every engine of EngineNames, in that order, preloaded
// with the dataset.
func loadedAll(d *Dataset, workers int) []engine.Engine {
	out := make([]engine.Engine, len(EngineNames))
	for i, name := range EngineNames {
		out[i] = Loaded(name, d, workers)
	}
	return out
}

// loadedCore returns an LSGraph configured by cfg, preloaded with the
// dataset: the ablation and sensitivity experiments' engine.
func loadedCore(d *Dataset, cfg core.Config) *core.Graph {
	g := core.New(d.N, cfg)
	g.InsertBatch(Split(d.Edges))
	return g
}

// insertTime is the mean time for e, loaded with d, to insert trial t's
// batch d.UpdateBatch(b, t), t < trials: the procedure of every insertion
// figure in the paper (§2, §6.2, §6.5). After each timed insert the batch
// is deleted and the loaded edges it held are inserted again, untimed, so
// every measurement starts from the loaded graph.
func insertTime(e engine.Update, d *Dataset, b, trials int) time.Duration {
	var total time.Duration
	for t := 0; t < trials; t++ {
		src, dst := d.UpdateBatch(b, t)
		t0 := time.Now()
		e.InsertBatch(src, dst)
		total += time.Since(t0)
		e.DeleteBatch(src, dst)
		e.InsertBatch(d.present(src, dst))
	}
	return total / time.Duration(trials)
}
