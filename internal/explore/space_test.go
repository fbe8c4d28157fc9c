package explore

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"mcpat/internal/chip"
	"mcpat/internal/guard"
)

func axisDiff(a, b *Candidate) int {
	d := 0
	if a.Cores != b.Cores {
		d++
	}
	if a.L2PerCoreKB != b.L2PerCoreKB {
		d++
	}
	if a.Fabric != b.Fabric {
		d++
	}
	if a.ClusterSize != b.ClusterSize {
		d++
	}
	return d
}

// TestEnumerateSnakeOrder pins the boustrophedon enumeration: the same
// point set as the naive cross product, with consecutive candidates
// differing in as few axes as possible so sweeps hand the subsystem
// cache single-axis deltas.
func TestEnumerateSnakeOrder(t *testing.T) {
	space := Space{
		Cores:        []int{4, 8, 16},
		L2PerCoreKB:  []int{64, 256, 1024},
		Fabrics:      []chip.InterconnectKind{chip.Ring, chip.Mesh, chip.Crossbar},
		ClusterSizes: []int{1, 2, 4},
	}
	got := enumerate(space)
	size, err := space.Size()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != size {
		t.Fatalf("enumerate produced %d points, Size says %d", len(got), size)
	}

	key := func(c *Candidate) [4]int {
		return [4]int{c.Cores, c.L2PerCoreKB, int(c.Fabric), c.ClusterSize}
	}
	seen := map[[4]int]bool{}
	for i := range got {
		k := key(&got[i])
		if seen[k] {
			t.Fatalf("duplicate design point %v", k)
		}
		seen[k] = true
	}
	// Same set as the naive cross product (mesh carries the cluster
	// axis, everything else collapses it to 1).
	for _, cores := range space.Cores {
		for _, l2 := range space.L2PerCoreKB {
			for _, fab := range space.Fabrics {
				clusters := space.ClusterSizes
				if fab != chip.Mesh {
					clusters = []int{1}
				}
				for _, cl := range clusters {
					k := [4]int{cores, l2, int(fab), cl}
					if !seen[k] {
						t.Fatalf("cross-product point %v missing from enumeration", k)
					}
				}
			}
		}
	}

	// Snake ordering: a step never changes more than two axes, and a
	// step that holds the fabric fixed changes exactly one.
	for i := 1; i < len(got); i++ {
		prev, cur := &got[i-1], &got[i]
		if d := axisDiff(prev, cur); d > 2 {
			t.Fatalf("step %d changes %d axes: %+v -> %+v", i, d, *prev, *cur)
		}
		if prev.Fabric == cur.Fabric {
			if d := axisDiff(prev, cur); d != 1 {
				t.Fatalf("same-fabric step %d changes %d axes: %+v -> %+v", i, d, *prev, *cur)
			}
		}
	}
}

// TestEnumerateOrderPinsWinnerIdentity pins that on a space with a
// unique optimum the snake enumeration still surfaces that exact design
// point as Best — reordering must never change winner identity.
func TestEnumerateOrderPinsWinnerIdentity(t *testing.T) {
	space := Space{
		Cores:        []int{4, 8, 16},
		L2PerCoreKB:  []int{128, 512},
		Fabrics:      []chip.InterconnectKind{chip.Ring},
		ClusterSizes: []int{1},
	}
	res, err := SearchContext(context.Background(), quickParams(), space, Constraints{},
		MaxThroughput, &Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("unconstrained space must produce a winner")
	}
	// Recompute the winner naively over the returned candidates: the
	// highest-scoring feasible point, first in rank order on ties.
	want := res.Candidates[0]
	for _, c := range res.Candidates[1:] {
		if c.Feasible && c.Score > want.Score {
			want = c
		}
	}
	if res.Best.Cores != want.Cores || res.Best.L2PerCoreKB != want.L2PerCoreKB ||
		res.Best.Fabric != want.Fabric || res.Best.ClusterSize != want.ClusterSize {
		t.Fatalf("Best %+v is not the top-scoring candidate %+v", *res.Best, want)
	}
}

// TestSpaceSizeOverflow pins satellite 1: a cross-product too large for
// int must surface guard.ErrConfig, not a wrapped or negative size.
func TestSpaceSizeOverflow(t *testing.T) {
	huge := make([]int, 1<<21)
	for i := range huge {
		huge[i] = i + 1
	}
	space := Space{
		Cores:        huge,
		L2PerCoreKB:  huge,
		Fabrics:      []chip.InterconnectKind{chip.Mesh},
		ClusterSizes: huge, // (2^21)^3 = 2^63: overflows int64
	}
	_, err := space.Size()
	if err == nil {
		t.Fatal("overflowing cross-product must be rejected")
	}
	if !errors.Is(err, guard.ErrConfig) {
		t.Fatalf("overflow must map to guard.ErrConfig, got %v", err)
	}

	// The error propagates through planning and the search entry point.
	if _, err := PlannedEvaluations(space, &Options{}); !errors.Is(err, guard.ErrConfig) {
		t.Fatalf("PlannedEvaluations must propagate the overflow, got %v", err)
	}
	if _, err := SearchContext(context.Background(), quickParams(), space, Constraints{},
		MaxThroughput, &Options{}); !errors.Is(err, guard.ErrConfig) {
		t.Fatalf("SearchContext must reject the overflowing space, got %v", err)
	}
}

func TestParseSearchKind(t *testing.T) {
	cases := []struct {
		in   string
		want SearchKind
	}{
		{"", SearchExhaustive},
		{"exhaustive", SearchExhaustive},
		{"pareto", SearchPareto},
	}
	for _, tc := range cases {
		got, err := ParseSearchKind(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSearchKind(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseSearchKind("genetic"); err == nil {
		t.Error("unknown search kind must be rejected")
	}
	if SearchExhaustive.String() != "exhaustive" || SearchPareto.String() != "pareto" {
		t.Error("SearchKind strings must round-trip the flag values")
	}
}

// TestSweepRoundTrip pins the one wire description of a sweep: every
// objective and fabric survives NewSweep -> Inputs, the CLI spelling
// "ed2ap" names the same objective as its String form, and unknown
// names are rejected with the messages the endpoints report.
func TestSweepRoundTrip(t *testing.T) {
	p := Params{NM: 22, ClockHz: 2.5e9, Threads: 4, MemBW: 64e9}
	space := Space{
		Cores:        []int{2, 4},
		L2PerCoreKB:  []int{64, 256},
		Fabrics:      []chip.InterconnectKind{chip.NoneIC, chip.Bus, chip.Crossbar, chip.Mesh, chip.Ring},
		ClusterSizes: []int{1, 2},
	}
	cons := Constraints{MaxAreaMM2: 400, MaxTDP: 250}
	for _, obj := range []Objective{MaxThroughput, MaxPerfPerWatt, MinED2AP} {
		s := NewSweep(p, space, cons, obj)
		gp, gs, gc, gobj, err := s.Inputs()
		if err != nil || !reflect.DeepEqual(gp, p) || !reflect.DeepEqual(gs, space) || gc != cons || gobj != obj {
			t.Errorf("%v: round trip gave %+v %+v %+v %v, %v", obj, gp, gs, gc, gobj, err)
		}
	}
	if obj, err := ParseObjective("ed2ap"); err != nil || obj != MinED2AP {
		t.Errorf(`ParseObjective("ed2ap") = %v, %v`, obj, err)
	}
	for _, tc := range []struct {
		s    Sweep
		want string
	}{
		{Sweep{Fabrics: []string{"hypercube"}}, `unknown fabric "hypercube" (none|bus|crossbar|mesh|ring)`},
		{Sweep{Objective: "fastest"}, `unknown objective "fastest" (throughput|perf/watt|ed2ap)`},
	} {
		if _, _, _, _, err := tc.s.Inputs(); err == nil || err.Error() != tc.want {
			t.Errorf("%+v: error %v, want %s", tc.s, err, tc.want)
		}
	}
}

// TestChipNameMatchesSprintf pins chipName to the fmt form it replaced,
// for every fabric kind (an out-of-range one included) and cluster
// sizes 0-4.
func TestChipNameMatchesSprintf(t *testing.T) {
	for k := chip.NoneIC; k <= chip.Ring+1; k++ {
		for _, fab := range []chip.InterconnectKind{k, chip.InterconnectKind(9)} {
			for cl := 0; cl <= 4; cl++ {
				for _, cores := range []int{1, 16, 1024} {
					c := Candidate{Cores: cores, L2PerCoreKB: 384, Fabric: fab, ClusterSize: cl}
					want := fmt.Sprintf("dse-%dc-%dkb-%v-cl%d", c.Cores, c.L2PerCoreKB, c.Fabric, c.ClusterSize)
					if got := chipName(c); got != want {
						t.Errorf("chipName(%+v) = %q, want %q", c, got, want)
					}
				}
			}
		}
	}
}
