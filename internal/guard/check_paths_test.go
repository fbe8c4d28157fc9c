package guard_test

import (
	"fmt"
	"math"
	"testing"

	"mcpat/internal/chip"
	"mcpat/internal/guard"
	"mcpat/internal/power"
	"mcpat/internal/validation"
)

// chain builds a healthy tree whose spine runs depth levels below the
// root; every spine node also has a leaf sibling. spine[d] is the spine
// node at depth d (spine[0] is the root). Every leaf carries the same
// values, so a spine node carries them times its leaf count, exactly.
func chain(depth int) (root *power.Item, spine []*power.Item) {
	spine = make([]*power.Item, depth+1)
	for d := depth; d >= 0; d-- {
		k := float64(depth - d + 1)
		spine[d] = &power.Item{Name: fmt.Sprintf("n%d", d), Area: k, PeakDynamic: 2 * k,
			RuntimeDynamic: k, SubLeak: 0.5 * k, GateLeak: 0.25 * k}
		if d < depth {
			leaf := &power.Item{Name: fmt.Sprintf("leaf%d", d+1), Area: 1, PeakDynamic: 2,
				RuntimeDynamic: 1, SubLeak: 0.5, GateLeak: 0.25}
			spine[d].Children = []*power.Item{spine[d+1], leaf}
		}
	}
	return spine[0], spine
}

// faults plant one unphysical value each into a node.
var faults = []struct {
	name  string
	plant func(it *power.Item)
}{
	{"NaN", func(it *power.Item) { it.SubLeak = math.NaN() }},
	{"+Inf", func(it *power.Item) { it.Area = math.Inf(1) }},
	{"-Inf", func(it *power.Item) { it.PeakDynamic = math.Inf(-1) }},
	{"negative", func(it *power.Item) { it.GateLeak = -1e-3 }},
	{"children above parent", func(it *power.Item) { it.RuntimeDynamic /= 2; it.Area *= 0.9 }},
	{"LeakSaved above leakage", func(it *power.Item) { it.LeakSaved = 2*it.Leakage() + 1 }},
}

// sameDiagnostics compares two diagnostic lists field by field, with
// values compared by bits so NaN findings compare equal.
func sameDiagnostics(t *testing.T, label string, got, want guard.Diagnostics) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d diagnostics, reference %d:\n got  %v\n want %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Path != w.Path || g.Field != w.Field || g.Msg != w.Msg ||
			math.Float64bits(g.Value) != math.Float64bits(w.Value) {
			t.Errorf("%s: diagnostic %d is %+v, reference %+v", label, i, g, w)
		}
	}
}

// TestDiagnosticPathsMatchReference plants every fault kind at every
// depth from 1 to 20 of a synthetic chain (deeper than the walker's
// fixed path stack), all of them at once, and into the nodes of a real
// chip report, and requires CheckReport's findings to equal the
// concatenating reference walker's: same paths, fields, values and
// messages, in the same order.
func TestDiagnosticPathsMatchReference(t *testing.T) {
	const maxDepth = 20
	for depth := 1; depth <= maxDepth; depth++ {
		for _, f := range faults {
			root, spine := chain(maxDepth + 1) // spine[maxDepth] has children
			f.plant(spine[depth])
			want := guard.RefCheckReport(root, nil)
			if len(want) == 0 {
				t.Fatalf("depth %d, %s: the reference found nothing", depth, f.name)
			}
			sameDiagnostics(t, fmt.Sprintf("depth %d, %s", depth, f.name), guard.CheckReport(root, nil), want)
		}
	}
	root, spine := chain(maxDepth + 1)
	for depth := 1; depth <= maxDepth; depth++ {
		faults[depth%len(faults)].plant(spine[depth])
		faults[(depth+1)%len(faults)].plant(spine[depth].Children[1])
	}
	sameDiagnostics(t, "every depth at once", guard.CheckReport(root, nil), guard.RefCheckReport(root, nil))

	proc, err := chip.New(validation.Niagara().Chip)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range faults {
		rep := proc.Report(&chip.Stats{CoreRun: proc.CorePeakActivity()})
		var nodes []*power.Item
		var walk func(it *power.Item)
		walk = func(it *power.Item) {
			nodes = append(nodes, it)
			for _, c := range it.Children {
				walk(c)
			}
		}
		walk(rep)
		for j := i + 1; j < len(nodes); j += 7 {
			f.plant(nodes[j])
		}
		want := guard.RefCheckReport(rep, nil)
		if len(want) == 0 {
			t.Fatalf("poisoned chip report, %s: the reference found nothing", f.name)
		}
		sameDiagnostics(t, "poisoned chip report, "+f.name, guard.CheckReport(rep, nil), want)
	}
}

// TestCheckReportAllocs: checking a clean report allocates nothing, so
// the check costs a DSE candidate or a served evaluation no garbage.
func TestCheckReportAllocs(t *testing.T) {
	proc, err := chip.New(validation.Niagara().Chip)
	if err != nil {
		t.Fatal(err)
	}
	if n := proc.Cfg.NumCores; n != 8 {
		t.Fatalf("want an 8-core chip, got %d cores", n)
	}
	rep := proc.Report(&chip.Stats{CoreRun: proc.CorePeakActivity()})
	if ds := guard.CheckReport(rep, nil); len(ds) != 0 {
		t.Fatalf("the clean report has findings: %v", ds)
	}
	if allocs := testing.AllocsPerRun(100, func() { guard.CheckReport(rep, nil) }); allocs != 0 {
		t.Errorf("CheckReport on a clean report: %v allocations, want 0", allocs)
	}
}
