package power

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestStaticAddScaleTotal(t *testing.T) {
	s := Static{Sub: 1, Gate: 2}
	if got := s.Total(); got != 3 {
		t.Errorf("Total = %v, want 3", got)
	}
	sum := s.Add(Static{Sub: 0.5, Gate: 0.25})
	if sum.Sub != 1.5 || sum.Gate != 2.25 {
		t.Errorf("Add = %+v", sum)
	}
	sc := s.Scale(2)
	if sc.Sub != 2 || sc.Gate != 4 {
		t.Errorf("Scale = %+v", sc)
	}
}

func TestEnergyDynamicPower(t *testing.T) {
	e := Energy{Read: 1e-12, Write: 2e-12, Search: 4e-12}
	a := Activity{Reads: 1e9, Writes: 0.5e9, Searches: 0.25e9}
	got := e.DynamicPower(a)
	want := 1e-3 + 1e-3 + 1e-3
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("DynamicPower = %v, want %v", got, want)
	}
}

func TestPATCycleTime(t *testing.T) {
	p := PAT{Delay: 2e-9}
	if p.CycleTime() != 2e-9 {
		t.Errorf("CycleTime fallback = %v", p.CycleTime())
	}
	p.Cycle = 1e-9
	if p.CycleTime() != 1e-9 {
		t.Errorf("CycleTime explicit = %v", p.CycleTime())
	}
}

func buildTree() *Item {
	root := NewItem("chip")
	core := NewItem("core")
	core.Add(
		&Item{Name: "ifu", Area: 1, PeakDynamic: 2, SubLeak: 0.5, GateLeak: 0.1},
		&Item{Name: "exu", Area: 2, PeakDynamic: 3, SubLeak: 0.7, GateLeak: 0.2, RuntimeDynamic: 1.5},
	)
	root.Add(core, &Item{Name: "l2", Area: 4, PeakDynamic: 1, SubLeak: 1.0, GateLeak: 0.3})
	return root
}

func TestRollup(t *testing.T) {
	root := buildTree().Rollup()
	if root.Area != 7 {
		t.Errorf("Area = %v, want 7", root.Area)
	}
	if root.PeakDynamic != 6 {
		t.Errorf("PeakDynamic = %v, want 6", root.PeakDynamic)
	}
	if math.Abs(root.SubLeak-2.2) > 1e-12 || math.Abs(root.GateLeak-0.6) > 1e-12 {
		t.Errorf("leakage = %v/%v", root.SubLeak, root.GateLeak)
	}
	if root.RuntimeDynamic != 1.5 {
		t.Errorf("RuntimeDynamic = %v", root.RuntimeDynamic)
	}
	if got, want := root.Peak(), 6+2.2+0.6; math.Abs(got-want) > 1e-12 {
		t.Errorf("Peak = %v, want %v", got, want)
	}
}

func TestRollupKeepsSelfContribution(t *testing.T) {
	root := NewItem("x")
	root.PeakDynamic = 1 // self / glue power
	root.Add(&Item{Name: "c", PeakDynamic: 2})
	root.Rollup()
	if root.PeakDynamic != 3 {
		t.Errorf("self contribution lost: %v", root.PeakDynamic)
	}
}

func TestFindAndClone(t *testing.T) {
	root := buildTree()
	if root.Find("exu") == nil {
		t.Fatal("Find(exu) = nil")
	}
	if root.Find("missing") != nil {
		t.Fatal("Find(missing) != nil")
	}
	cp := root.Clone()
	cp.Find("exu").PeakDynamic = 99
	if root.Find("exu").PeakDynamic == 99 {
		t.Error("Clone is not deep")
	}
}

// TestScale replicates a compiled subtree: Builder.Scale multiplies the
// TDP columns of every row under it now, and the runtime columns it
// rolls up in every score.
func TestScale(t *testing.T) {
	b := NewBuilder(nil)
	b.Open("chip")
	b.Open("core")
	b.Leaf("ifu", 1, 2, 0.5, 0.1)
	b.Leaf("exu", 2, 3, 0.7, 0.2)
	b.Scale(b.Close(), 3)
	b.Leaf("l2", 4, 1, 1.0, 0.3)
	b.Close()
	prog := b.Program()
	slab := make([]float64, prog.SlabLen())
	in := append(prog.InputBuf(slab), 0.25, 1.5, 0.5)
	if len(in) != prog.Inputs {
		t.Fatalf("%d inputs, program takes %d", len(in), prog.Inputs)
	}
	sc := prog.Run(slab, 1, 1)

	if got := sc.PeakDynamic(1); got != 15 {
		t.Errorf("core PeakDynamic = %v, want 15", got)
	}
	if got := sc.Area(2); got != 3 {
		t.Errorf("Scale not recursive: ifu area %v, want 3", got)
	}
	if got := sc.RuntimeDynamic(1); got != 5.25 {
		t.Errorf("core RuntimeDynamic = %v, want 5.25", got)
	}
	if got := sc.RuntimeDynamic(0); got != 5.75 {
		t.Errorf("chip RuntimeDynamic = %v, want 5.75 (the l2 is not scaled)", got)
	}
	if got := sc.Area(0); got != 13 {
		t.Errorf("chip Area = %v, want 13", got)
	}
}

// TestFromPAT builds a leaf from a component model's result: area and
// leakage as they are, the TDP column at the peak activity, and the
// runtime column as the score supplies it.
func TestFromPAT(t *testing.T) {
	p := PAT{
		Energy: Energy{Read: 1e-12, Write: 2e-12},
		Static: Static{Sub: 0.1, Gate: 0.05},
		Area:   1e-6,
	}
	b := NewBuilder(nil)
	b.LeafPAT("buf", p, Activity{Reads: 1e9})
	prog := b.Program()
	slab := make([]float64, prog.SlabLen())
	_ = append(prog.InputBuf(slab), p.Energy.DynamicPower(Activity{Reads: 5e8}))
	sc := prog.Run(slab, 1, 1)
	it := sc.Tree()
	if math.Abs(it.PeakDynamic-1e-3) > 1e-15 {
		t.Errorf("PeakDynamic = %v", it.PeakDynamic)
	}
	if math.Abs(it.RuntimeDynamic-0.5e-3) > 1e-15 {
		t.Errorf("RuntimeDynamic = %v", it.RuntimeDynamic)
	}
	if it.Name != "buf" || it.SubLeak != 0.1 || it.GateLeak != 0.05 || it.Area != 1e-6 {
		t.Errorf("leaf fields wrong: %+v", it)
	}
}

func TestFormatDepthLimit(t *testing.T) {
	root := buildTree().Rollup()
	top := root.Format(0)
	if strings.Contains(top, "ifu") {
		t.Error("depth 0 should not include grandchildren")
	}
	full := root.Format(-1)
	for _, name := range []string{"chip", "core", "ifu", "exu", "l2"} {
		if !strings.Contains(full, name) {
			t.Errorf("full format missing %q", name)
		}
	}
	if !strings.Contains(full, "mm^2") {
		t.Error("format should report area in mm^2")
	}
}

func TestSortChildrenByPeak(t *testing.T) {
	root := buildTree()
	for _, c := range root.Children {
		c.Rollup()
	}
	root.SortChildrenByPeak()
	if root.Children[0].Name != "core" {
		t.Errorf("expected core first, got %s", root.Children[0].Name)
	}
}

func TestQuickRollupAdditive(t *testing.T) {
	// Property: rollup total equals sum of leaf values regardless of the
	// tree shape (here: a root with n leaves).
	f := func(vals []float64) bool {
		root := NewItem("r")
		var want float64
		for _, v := range vals {
			v = math.Abs(v)
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return true
			}
			v = math.Mod(v, 1e6) // keep sums finite
			root.Add(&Item{Name: "leaf", PeakDynamic: v})
			want += v
		}
		root.Rollup()
		return math.Abs(root.PeakDynamic-want) <= 1e-9*math.Max(1, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJSONExport(t *testing.T) {
	root := buildTree().Rollup()
	var buf strings.Builder
	if err := root.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded["name"] != "chip" {
		t.Errorf("name = %v", decoded["name"])
	}
	// Area serialized in mm^2: 7 m^2 -> 7e6 mm^2.
	if got := decoded["area_mm2"].(float64); got != 7e6 {
		t.Errorf("area_mm2 = %v", got)
	}
	if got := decoded["peak_total_w"].(float64); got <= 0 {
		t.Errorf("peak_total_w = %v", got)
	}
	kids := decoded["children"].([]any)
	if len(kids) != 2 {
		t.Errorf("children = %d", len(kids))
	}
}

func TestJSONOmitsRuntimeWhenAbsent(t *testing.T) {
	leaf := &Item{Name: "x", PeakDynamic: 1}
	b, err := json.Marshal(leaf)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "runtime_total_w") {
		t.Error("runtime fields must be omitted without statistics")
	}
}
