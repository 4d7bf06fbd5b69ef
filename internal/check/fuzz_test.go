package check

import "testing"

// fuzzConfig splits a program's first byte into the shard count (1, 2, 4 or
// 8, from its low two bits) and the engine configuration (simEngines, from
// the next two); the rest is the simulator program.
func fuzzConfig(data []byte, mode Mode) ([]byte, SimConfig) {
	cfg := SimConfig{Shards: 1, Mode: mode}
	if len(data) > 0 {
		cfg.Shards = []int{1, 2, 4, 8}[data[0]%4]
		cfg.Engine = simEngines[data[0]/4%4].name
		data = data[1:]
	}
	return data, cfg
}

// fuzzSeeds are shared starting corpus entries for both engine-level fuzz
// targets: an empty program, a tiny insert+verify, a grow-heavy program,
// one full pseudo-random workload per target so coverage starts deep, and
// a class walk (genClassWalk) under the small thresholds and each ablation
// at two and four shards, so mutation starts from programs that already
// cross every promotion and demotion.
func fuzzSeeds(f *testing.F) {
	f.Add([]byte{})
	// insert (1,2),(2,1); verify; kernel 0 on src 0.
	f.Add([]byte{0, 1, 1, 2, 2, 1, 5, 6, 0})
	// grow twice, insert a self-ish cluster, delete half of it, verify, view.
	f.Add([]byte{7, 200, 7, 9, 0, 3, 10, 11, 11, 10, 10, 12, 12, 10, 3, 1, 10, 11, 11, 10, 5, 8})
	f.Add(genProgram(1))
	f.Add(genProgram(17))
	for e := byte(1); e < 4; e++ {
		f.Add(append([]byte{4*e + e%2 + 1}, genClassWalk(int64(e))...))
	}
}

// FuzzEngineOps drives a bare core.Graph differentially against the
// oracle. The first byte picks the shard count and the engine configuration
// (fuzzConfig); the rest is a simulator program — the same decoder the
// seeded sweep uses, so any crasher the fuzzer finds is replayable through
// TestSimReplay.
func FuzzEngineOps(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := RunBytes(fuzzConfig(data, ModeCore)); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzStoreOps drives the full serving layer (enqueue, backpressure
// coalescing, flush, epoch-pinned views, flatten) differentially against
// the oracle, with the same program encoding as FuzzEngineOps.
func FuzzStoreOps(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := RunBytes(fuzzConfig(data, ModeStore)); err != nil {
			t.Fatal(err)
		}
	})
}
