package array

// Property tests for the optimizer's branch-and-bound pruning: over a
// seeded randomized corpus of array configurations, the pruned
// enumeration must pick exactly the organization the exhaustive loop
// picks — same geometry and bit-identical power/area/timing. The bound
// is admissible by construction (it sums a subset of the evaluation's
// non-negative terms), and these tests pin that property against
// regressions in either the bound or the evaluation it mirrors.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mcpat/internal/tech"
	"mcpat/internal/tech/techtest"
)

// runBothModes validates cfg and runs the enumeration with pruning on
// and off, returning the two results.
func runBothModes(t *testing.T, cfg Config) (pruned, exhaustive *Result) {
	t.Helper()
	prunedCfg := cfg
	totalBits, wordBits, err := prunedCfg.validate()
	if err != nil {
		t.Fatalf("%s: validate: %v", cfg.Name, err)
	}
	env := newSRAMEnv(&prunedCfg)
	pruned, prunedErr := optimizeEnvMode(env, prunedCfg, totalBits, wordBits, true)
	exhaustive, exhaustiveErr := optimizeEnvMode(env, prunedCfg, totalBits, wordBits, false)
	if (prunedErr == nil) != (exhaustiveErr == nil) {
		t.Fatalf("%s: error disagreement: pruned=%v exhaustive=%v", cfg.Name, prunedErr, exhaustiveErr)
	}
	return pruned, exhaustive
}

// assertSameWinner checks both modes selected the same organization with
// bit-identical numbers (the Pruned counter is bookkeeping, not part of
// the winner, and is normalized out).
func assertSameWinner(t *testing.T, name string, pruned, exhaustive *Result) {
	t.Helper()
	if pruned == nil || exhaustive == nil {
		return // both infeasible; runBothModes already checked agreement
	}
	a, b := *pruned, *exhaustive
	a.Pruned, b.Pruned = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Errorf("%s: pruned optimizer picked a different winner:\n  pruned:     rows=%d cols=%d mux=%d subarrays=%d obj-relevant E.Read=%v Access=%v Area=%v\n  exhaustive: rows=%d cols=%d mux=%d subarrays=%d obj-relevant E.Read=%v Access=%v Area=%v",
			name,
			a.Rows, a.Cols, a.ColMux, a.Subarrays, a.Energy.Read, a.AccessTime, a.Area,
			b.Rows, b.Cols, b.ColMux, b.Subarrays, b.Energy.Read, b.AccessTime, b.Area)
	}
}

// pruneTable holds the deliberate corner cases: every objective, banked
// arrays, tight and absent timing targets, and the fastest-fallback path
// where nothing meets the target (pruning must stay inert there: no
// incumbent, no bound).
func pruneTable() []Config {
	n32 := techtest.Node(32)
	n22 := techtest.Node(22)
	return []Config{
		{Name: "l2-ed2", Tech: n32, Periph: tech.HP, Cell: tech.LSTP,
			Bytes: 256 << 10, Banks: 4, TargetCycle: 1 / 2.0e9, Obj: OptED2},
		{Name: "l1-delay", Tech: n22, Periph: tech.HP,
			Bytes: 32 << 10, BlockBits: 256, Banks: 1, TargetCycle: 1 / 3.0e9, Obj: OptDelay},
		{Name: "rf-area", Tech: n22, Periph: tech.HP,
			Entries: 128, EntryBits: 64, RdPorts: 4, WrPorts: 2, Obj: OptArea},
		{Name: "buf-ed", Tech: n32, Periph: tech.HP,
			Entries: 64, EntryBits: 128, Obj: OptEnergyDelay},
		{Name: "no-target", Tech: n32, Periph: tech.HP, Cell: tech.LSTP,
			Bytes: 1 << 20, Banks: 8, Obj: OptED2},
		{Name: "impossible-target", Tech: n32, Periph: tech.HP,
			Bytes: 512 << 10, Banks: 2, TargetCycle: 1e-12, Obj: OptED2},
	}
}

// TestPrunedOptimizerMatchesExhaustiveTable runs pruneTable's corner
// cases with pruning on and off.
func TestPrunedOptimizerMatchesExhaustiveTable(t *testing.T) {
	for _, cfg := range pruneTable() {
		pruned, exhaustive := runBothModes(t, cfg)
		assertSameWinner(t, cfg.Name, pruned, exhaustive)
	}
}

// TestPrunedOptimizerMatchesExhaustiveRandom fuzzes the same property
// over a seeded random corpus spanning nodes, capacities, port mixes,
// bankings, objectives, and clock targets.
func TestPrunedOptimizerMatchesExhaustiveRandom(t *testing.T) {
	r := rand.New(rand.NewSource(0xA11CE))
	nodes := []*tech.Node{techtest.Node(45), techtest.Node(32), techtest.Node(22)}
	for i := 0; i < 80; i++ {
		cfg := Config{
			Name:   fmt.Sprintf("rand-%d", i),
			Tech:   nodes[r.Intn(len(nodes))],
			Periph: tech.HP,
			Obj:    Objective(r.Intn(4)),
			Banks:  1 << r.Intn(4),
		}
		if r.Intn(2) == 0 {
			cfg.Cell = tech.LSTP
		}
		if r.Intn(2) == 0 {
			cfg.Bytes = 1024 << r.Intn(11) // 1KB .. 1MB
			if r.Intn(2) == 0 {
				cfg.BlockBits = 128 << r.Intn(3)
			}
		} else {
			cfg.Entries = 16 << r.Intn(6)
			cfg.EntryBits = 8 * (1 + r.Intn(16))
		}
		switch r.Intn(3) {
		case 0:
			cfg.RWPorts = 1
		case 1:
			cfg.RdPorts = 1 + r.Intn(3)
			cfg.WrPorts = 1 + r.Intn(2)
		case 2:
			cfg.RWPorts = 2
		}
		if r.Intn(3) > 0 {
			cfg.TargetCycle = 1 / ((1 + 2*r.Float64()) * 1e9)
		}
		pruned, exhaustive := runBothModes(t, cfg)
		assertSameWinner(t, cfg.Name, pruned, exhaustive)
	}
}

// TestPruningActuallyPrunes pins that the bound does real work on a
// representative cache-shaped config and that the process-wide counters
// observe it: a perf optimization whose counter stays at zero has
// silently regressed to exhaustive search.
func TestPruningActuallyPrunes(t *testing.T) {
	before := OptStats()
	cfg := Config{Name: "llc", Tech: techtest.Node(22), Periph: tech.HP, Cell: tech.LSTP,
		Bytes: 2 << 20, Banks: 4, TargetCycle: 1 / 2.5e9, Obj: OptED2}
	totalBits, wordBits, err := cfg.validate()
	if err != nil {
		t.Fatal(err)
	}
	res, err := optimizeEnvMode(newSRAMEnv(&cfg), cfg, totalBits, wordBits, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned == 0 {
		t.Error("expected the lower bound to prune at least one organization on a 2MB cache sweep")
	}
	d := OptStats().Delta(before)
	if d.Pruned != uint64(res.Pruned) {
		t.Errorf("process counter delta %d != Result.Pruned %d", d.Pruned, res.Pruned)
	}
	if d.Evaluated == 0 {
		t.Error("evaluated counter did not move")
	}
	if rate := d.PruneRate(); rate <= 0 || rate >= 1 {
		t.Errorf("prune rate %v out of (0,1)", rate)
	}
}
