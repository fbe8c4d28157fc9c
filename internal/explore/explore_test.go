package explore

import (
	"testing"

	"mcpat/internal/chip"
	"mcpat/internal/perfsim"
)

func quickParams() Params {
	return Params{
		NM: 22, ClockHz: 2.5e9, Threads: 4, MemBW: 200e9,
		Workloads: []perfsim.Workload{perfsim.SPLASH2Like()[0]},
	}
}

func TestSearchRanksFeasiblePoints(t *testing.T) {
	res, err := Search(quickParams(), Space{
		Cores:        []int{16, 32, 64},
		L2PerCoreKB:  []int{256},
		Fabrics:      []chip.InterconnectKind{chip.Mesh},
		ClusterSizes: []int{1, 4},
	}, Constraints{MaxAreaMM2: 400, MaxTDP: 250}, MaxThroughput)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 6 {
		t.Fatalf("evaluated %d points, want 6", res.Evaluated)
	}
	if res.Best == nil {
		t.Fatal("no feasible design found")
	}
	// Feasible candidates come first and are sorted by score.
	seenInfeasible := false
	var prev float64 = 1e300
	for _, c := range res.Candidates {
		if !c.Feasible {
			seenInfeasible = true
			if c.Reject == "" {
				t.Error("infeasible candidate must carry a reason")
			}
			continue
		}
		if seenInfeasible {
			t.Fatal("feasible candidate after infeasible one")
		}
		if c.Score > prev {
			t.Fatal("candidates not sorted by score")
		}
		prev = c.Score
	}
	// Under MaxThroughput with a generous budget, more cores win.
	if res.Best.Cores != 64 {
		t.Errorf("throughput objective should pick 64 cores, got %d", res.Best.Cores)
	}
}

func TestConstraintsPrune(t *testing.T) {
	res, err := Search(quickParams(), Space{
		Cores:   []int{16, 64},
		Fabrics: []chip.InterconnectKind{chip.Mesh},
	}, Constraints{MaxTDP: 60}, MaxThroughput)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Candidates {
		if c.Cores == 64 && c.Feasible {
			t.Error("a 64-core 22nm chip cannot fit a 60 W budget")
		}
	}
	// Infeasible-only spaces yield no Best.
	res2, err := Search(quickParams(), Space{
		Cores:   []int{64},
		Fabrics: []chip.InterconnectKind{chip.Mesh},
	}, Constraints{MaxTDP: 10}, MaxThroughput)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Best != nil {
		t.Error("10 W budget must be infeasible")
	}
}

func TestObjectivesDisagree(t *testing.T) {
	space := Space{
		Cores:        []int{16, 64},
		L2PerCoreKB:  []int{256},
		Fabrics:      []chip.InterconnectKind{chip.Mesh},
		ClusterSizes: []int{1, 4},
	}
	cons := Constraints{MaxAreaMM2: 500, MaxTDP: 300}
	tp, err := Search(quickParams(), space, cons, MaxThroughput)
	if err != nil {
		t.Fatal(err)
	}
	ppw, err := Search(quickParams(), space, cons, MaxPerfPerWatt)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Best == nil || ppw.Best == nil {
		t.Fatal("both searches need a best point")
	}
	// The throughput winner has more raw perf; the efficiency winner has
	// better perf/watt - the central McPAT-study observation that optima
	// differ per target.
	if tp.Best.Perf < ppw.Best.Perf {
		t.Error("throughput objective must not lose raw performance")
	}
	if ppw.Best.Perf/ppw.Best.RunW < tp.Best.Perf/tp.Best.RunW {
		t.Error("perf/watt objective must not lose efficiency")
	}
}

func TestNonMeshFabricsIgnoreClustering(t *testing.T) {
	res, err := Search(quickParams(), Space{
		Cores:        []int{8},
		Fabrics:      []chip.InterconnectKind{chip.Crossbar},
		ClusterSizes: []int{1, 2, 4},
	}, Constraints{}, MaxThroughput)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 1 {
		t.Errorf("crossbar should collapse cluster axis: evaluated %d", res.Evaluated)
	}
}

func TestDefaults(t *testing.T) {
	res, err := Search(Params{Workloads: []perfsim.Workload{perfsim.SPLASH2Like()[2]}},
		Space{}, Constraints{}, MinED2AP)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("default space must produce a feasible point")
	}
	if res.Best.Score <= 0 {
		t.Error("score must be positive")
	}
}

func TestInvalidClusterIsRejectedNotFatal(t *testing.T) {
	res, err := Search(quickParams(), Space{
		Cores:        []int{10}, // 3 does not divide 10
		Fabrics:      []chip.InterconnectKind{chip.Mesh},
		ClusterSizes: []int{3},
	}, Constraints{}, MaxThroughput)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible != 0 || res.Candidates[0].Reject == "" {
		t.Error("non-dividing cluster must be rejected with a reason")
	}
}

// TestAreaGrowsWithCores: at 22 nm, a chip's area never falls as its
// core count rises, at every L2 capacity per core and every fabric
// shape (mesh with clusters of 1, 2 and 4, ring, bus, crossbar): 936
// adjacent steps over 14 core counts and 12 capacities.
func TestAreaGrowsWithCores(t *testing.T) {
	p := Params{NM: 22, ClockHz: 2.5e9, Threads: 4, MemBW: 200e9}
	if err := p.defaults(); err != nil {
		t.Fatal(err)
	}
	var cores, kbs []int
	for c := 8; c <= 60; c += 4 {
		cores = append(cores, c)
	}
	for kb := 128; kb <= 480; kb += 32 {
		kbs = append(kbs, kb)
	}
	shapes := []struct {
		fabric  chip.InterconnectKind
		cluster int
	}{{chip.Mesh, 1}, {chip.Mesh, 2}, {chip.Mesh, 4}, {chip.Ring, 1}, {chip.Bus, 1}, {chip.Crossbar, 1}}
	steps := 0
	for _, kb := range kbs {
		for _, sh := range shapes {
			prev, prevCores := 0.0, 0
			for _, n := range cores {
				cfg, err := buildConfig(p, Candidate{Cores: n, L2PerCoreKB: kb, Fabric: sh.fabric, ClusterSize: sh.cluster})
				if err != nil {
					t.Fatal(err)
				}
				proc, err := chip.New(cfg)
				if err != nil {
					t.Fatalf("%s: %v", cfg.Name, err)
				}
				area := proc.Area()
				if prevCores > 0 {
					steps++
					if area < prev {
						t.Errorf("%v cl%d, %d KB/core: area falls from %.6g mm2 at %d cores to %.6g mm2 at %d",
							sh.fabric, sh.cluster, kb, prev*1e6, prevCores, area*1e6, n)
					}
				}
				prev, prevCores = area, n
			}
		}
	}
	if steps != 936 {
		t.Fatalf("checked %d steps, want 936", steps)
	}
}
