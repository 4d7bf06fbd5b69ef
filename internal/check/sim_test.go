package check

import (
	"encoding/base64"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"lsgraph/internal/core"
)

var simShardCounts = []int{1, 2, 4, 8}

// TestSimSeeds is the main differential sweep: 25 seeded workloads per
// (mode, shard count) combination — 2 modes x 4 shard counts x 25 seeds =
// 200 workloads per run, each driving a fresh engine in lockstep against
// the oracle with full verification at every verify op and at the end.
// Combinations run in parallel to bound wall time.
func TestSimSeeds(t *testing.T) {
	const seedsPer = 25
	for _, mode := range []Mode{ModeCore, ModeStore} {
		for _, S := range simShardCounts {
			mode, S := mode, S
			t.Run(fmt.Sprintf("%s/shards=%d", mode, S), func(t *testing.T) {
				t.Parallel()
				for seed := int64(0); seed < seedsPer; seed++ {
					seed := seed
					t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
						if err := RunSeed(seed, SimConfig{Shards: S, Mode: mode}); err != nil {
							t.Fatal(err)
						}
					})
				}
			})
		}
	}
}

// TestSimClassWalk is the sweep over the overflow classes: programs that
// take hub vertices up through inline, array, RIA and HITree and back down
// by small batches (genClassWalk), under the small thresholds and both
// overflow ablations, S∈{1,2,4}. Beyond the oracle and the deep walk — which
// fails a missed promotion or demotion at the verify after it — each bare
// graph must actually have held every class its configuration has, or the
// sweep would pass by never leaving the array. A Store runs the same hubs up
// and down its runs and must hold no class at all: its graph is paged, and
// the thresholds are not its to follow.
func TestSimClassWalk(t *testing.T) {
	for _, e := range simEngines[1:] {
		for _, mode := range []Mode{ModeCore, ModeStore} {
			for _, S := range []int{1, 2, 4} {
				e, mode, S := e, mode, S
				t.Run(fmt.Sprintf("%s/%s/shards=%d", e.name, mode, S), func(t *testing.T) {
					t.Parallel()
					for seed := int64(0); seed < 4; seed++ {
						cfg := SimConfig{Shards: S, Mode: mode, Engine: e.name}
						ops := decodeProgram(genClassWalk(seed))
						r, err := run(ops, cfg)
						if err != nil {
							t.Fatal(runShrunk(ops, cfg, fmt.Sprintf(
								"go test -run 'TestSimClassWalk/%s/%s/shards=%d' ./internal/check  # seed %d", e.name, mode, S, seed)))
						}
						want := engineClasses[e.name]
						if mode == ModeStore {
							want = [3]bool{}
						}
						if got := r.classesSeen(); got != want {
							t.Errorf("seed %d verified with (array, RIA, HITree/PMA) overflows present %v, want %v", seed, got, want)
						}
					}
				})
			}
		}
	}
}

// TestSimRebalanceHeavy drives rebalance-dense differential workloads:
// roughly a third of all ops are boundary moves, interleaved with skewed
// inserts, deletes, kernels, and mid-stream views, across S∈{2,4,8} in
// both modes. Every rebalance op is itself followed by a full oracle
// comparison, so a splice that corrupts, drops, or duplicates a single
// edge fails at the move that caused it.
func TestSimRebalanceHeavy(t *testing.T) {
	// Op-kind byte weights: insert 3x, delete 2x, rebalance 3x, one
	// kernel and one view slot (see decodeProgram's selector table).
	kinds := []byte{0, 0, 0, 3, 3, 9, 9, 9, 6, 8}
	for _, mode := range []Mode{ModeCore, ModeStore} {
		for _, S := range []int{2, 4, 8} {
			mode, S := mode, S
			t.Run(fmt.Sprintf("%s/shards=%d", mode, S), func(t *testing.T) {
				t.Parallel()
				for seed := int64(0); seed < 8; seed++ {
					rng := rand.New(rand.NewSource(3000 + seed))
					var data []byte
					for i := 0; i < 60; i++ {
						k := kinds[rng.Intn(len(kinds))]
						data = append(data, k)
						switch k {
						case 0, 3: // batch: count byte + (src,dst) pairs
							cnt := 1 + rng.Intn(12)
							data = append(data, byte(cnt-1))
							for e := 0; e < cnt; e++ {
								data = append(data, byte(rng.Intn(256)), byte(rng.Intn(256)))
							}
						case 6, 9: // selector byte
							data = append(data, byte(rng.Intn(256)))
						}
					}
					if err := RunBytes(data, SimConfig{Shards: S, Mode: mode}); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
			})
		}
	}
}

// TestSimReplay replays a minimized program from the environment. It is
// the target of the replay command the harness prints on failure:
//
//	LSGRAPH_CHECK_REPLAY=<base64> LSGRAPH_CHECK_SHARDS=<S> LSGRAPH_CHECK_MODE=<core|store> \
//	  LSGRAPH_CHECK_ENGINE=<|small|pma|riaonly> go test -run 'TestSimReplay' ./internal/check
func TestSimReplay(t *testing.T) {
	enc := os.Getenv("LSGRAPH_CHECK_REPLAY")
	if enc == "" {
		t.Skip("set LSGRAPH_CHECK_REPLAY (see a simulator failure message) to replay a program")
	}
	data, err := base64.StdEncoding.DecodeString(enc)
	if err != nil {
		t.Fatalf("bad LSGRAPH_CHECK_REPLAY: %v", err)
	}
	cfg := SimConfig{Shards: 1, Engine: os.Getenv("LSGRAPH_CHECK_ENGINE")}
	if s := os.Getenv("LSGRAPH_CHECK_SHARDS"); s != "" {
		if cfg.Shards, err = strconv.Atoi(s); err != nil {
			t.Fatalf("bad LSGRAPH_CHECK_SHARDS: %v", err)
		}
	}
	if os.Getenv("LSGRAPH_CHECK_MODE") == "store" {
		cfg.Mode = ModeStore
	}
	if err := RunBytes(data, cfg); err != nil {
		t.Fatalf("replay failed (this is the bug you are chasing):\n%v", err)
	}
	t.Log("replayed program passed (bug no longer reproduces)")
}

var replayRE = regexp.MustCompile(`LSGRAPH_CHECK_REPLAY=([A-Za-z0-9+/=]+) LSGRAPH_CHECK_SHARDS=(\d+) LSGRAPH_CHECK_MODE=(\w+) LSGRAPH_CHECK_ENGINE=(\w*) `)

// TestHarnessCatchesInjectedBug is the harness's self-test: with a
// deliberate fault injected between the generator and the engine (inserted
// edges with dst%7==3 silently dropped), the simulator must detect the
// divergence, shrink the program, and emit a failure message carrying a
// replayable minimal program. The test decodes that program and confirms
// it still reproduces under the fault.
func TestHarnessCatchesInjectedBug(t *testing.T) {
	for _, mode := range []Mode{ModeCore, ModeStore} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := SimConfig{Shards: 4, Mode: mode, Fault: Fault{Mod: 7, Eq: 3}}
			var err error
			for seed := int64(0); seed < 20; seed++ {
				if err = RunSeed(seed, cfg); err != nil {
					break
				}
			}
			if err == nil {
				t.Fatal("harness missed an injected bug across 20 seeds: the differential comparison is not comparing")
			}
			msg := err.Error()
			for _, want := range []string{"minimized to", "go test -run 'TestSimReplay'", "go test -run 'TestSimSeeds/"} {
				if !strings.Contains(msg, want) {
					t.Errorf("failure message missing %q:\n%s", want, msg)
				}
			}
			m := replayRE.FindStringSubmatch(msg)
			if m == nil {
				t.Fatalf("failure message has no parseable replay command:\n%s", msg)
			}
			prog, derr := base64.StdEncoding.DecodeString(m[1])
			if derr != nil {
				t.Fatalf("replay payload is not base64: %v", derr)
			}
			// The minimized program must still fail under the fault...
			if rerr := RunBytes(prog, cfg); rerr == nil {
				t.Error("minimized program does not reproduce the injected bug")
			}
			// ...and pass on the healthy engine (the bug is the fault, not
			// the program).
			if herr := RunBytes(prog, SimConfig{Shards: 4, Mode: mode}); herr != nil {
				t.Errorf("minimized program fails even without the fault: %v", herr)
			}
			t.Logf("caught and shrunk: %v", err)
		})
	}
}

// TestShrinkerOutputIsMinimalish checks the shrinker actually shrinks: a
// long random program failing only because of the injected fault must
// minimize to far fewer ops than it started with, and the canonical
// encoder must round-trip the survivor exactly.
func TestShrinkerOutputIsMinimalish(t *testing.T) {
	cfg := SimConfig{Shards: 2, Mode: ModeCore, Fault: Fault{Mod: 2, Eq: 1}}
	var ops []op
	for seed := int64(0); seed < 20; seed++ {
		cand := decodeProgram(genProgram(seed))
		if runOps(cand, cfg) != nil {
			ops = cand
			break
		}
	}
	if ops == nil {
		t.Fatal("no failing program found under a fault dropping half of all inserts")
	}
	min := shrinkOps(ops, cfg)
	if runOps(min, cfg) == nil {
		t.Fatal("shrinker returned a passing program")
	}
	if len(min) > 4 {
		t.Errorf("shrinker left %d ops (from %d); want <= 4 for a drop-odd-destinations fault", len(min), len(ops))
	}
	back := decodeProgram(encodeOps(min))
	if len(back) != len(min) {
		t.Fatalf("encode/decode round trip: %d ops became %d", len(min), len(back))
	}
	for i := range back {
		if back[i].kind != min[i].kind || len(back[i].src) != len(min[i].src) {
			t.Fatalf("encode/decode round trip mutated op %d: %s/%d became %s/%d",
				i, min[i].kind, len(min[i].src), back[i].kind, len(back[i].src))
		}
		for j := range back[i].src {
			if back[i].src[j] != min[i].src[j] || back[i].dst[j] != min[i].dst[j] {
				t.Fatalf("encode/decode round trip mutated op %d edge %d", i, j)
			}
		}
	}
}

// TestDebugValidateHook exercises the core debug hook end to end: install
// the deep validator via core.SetDebugValidate, run batches, and confirm
// the hook fired on every batch with a clean bill of health.
func TestDebugValidateHook(t *testing.T) {
	calls := 0
	prev := core.SetDebugValidate(func(g *core.Graph) {
		calls++
		if err := g.CheckInvariants(); err != nil {
			t.Errorf("post-batch invariant violation: %v", err)
		}
	})
	defer core.SetDebugValidate(prev)

	g := core.New(16, core.Config{Shards: 2})
	g.InsertBatch([]uint32{1, 1, 2, 9, 9}, []uint32{2, 3, 3, 1, 4})
	g.DeleteBatch([]uint32{1, 9}, []uint32{3, 4})
	g.InsertBatch([]uint32{5}, []uint32{6})
	if calls != 3 {
		t.Fatalf("debug hook ran %d times for 3 batches", calls)
	}
}

// soakBudget returns how long a `make soak` stage may run: the Go duration
// in LSGRAPH_SOAK_TIME. Without it the calling test is skipped.
func soakBudget(t *testing.T) time.Duration {
	s := os.Getenv("LSGRAPH_SOAK_TIME")
	if s == "" {
		t.Skip("set LSGRAPH_SOAK_TIME (or run `make soak`) for the long randomized sweeps")
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		t.Fatalf("bad LSGRAPH_SOAK_TIME: %v", err)
	}
	return d
}

// TestSoak is the long-running randomized sweep behind `make soak`. Seeds
// start above the TestSimSeeds range so soak explores fresh workloads.
func TestSoak(t *testing.T) {
	budget := soakBudget(t)
	deadline := time.Now().Add(budget)
	seed, runs := int64(1_000_000), 0
	for time.Now().Before(deadline) {
		for _, mode := range []Mode{ModeCore, ModeStore} {
			for _, S := range simShardCounts {
				if err := RunSeed(seed, SimConfig{Shards: S, Mode: mode}); err != nil {
					t.Fatal(err)
				}
				runs++
			}
		}
		seed++
	}
	t.Logf("soak: %d workloads clean in %v", runs, budget)
}
