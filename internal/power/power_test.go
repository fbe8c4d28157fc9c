package power

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
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

// buildTree is a small report tree, each interior node carrying the sum
// of its children.
func buildTree() *Item {
	core := &Item{Name: "core", Area: 3, PeakDynamic: 5, RuntimeDynamic: 1.5, SubLeak: 1.2, GateLeak: 0.3,
		Children: []*Item{
			{Name: "ifu", Area: 1, PeakDynamic: 2, SubLeak: 0.5, GateLeak: 0.1},
			{Name: "exu", Area: 2, PeakDynamic: 3, SubLeak: 0.7, GateLeak: 0.2, RuntimeDynamic: 1.5},
		}}
	return &Item{Name: "chip", Area: 7, PeakDynamic: 6, RuntimeDynamic: 1.5, SubLeak: 2.2, GateLeak: 0.6,
		Children: []*Item{core, {Name: "l2", Area: 4, PeakDynamic: 1, SubLeak: 1.0, GateLeak: 0.3}}}
}

func TestFind(t *testing.T) {
	root := buildTree()
	if it := root.Find("exu"); it == nil || it.RuntimeDynamic != 1.5 {
		t.Fatalf("Find(exu) = %+v", it)
	}
	if root.Find("missing") != nil {
		t.Fatal("Find(missing) != nil")
	}
}

// TestScale replicates a compiled subtree: Builder.Scale multiplies the
// TDP columns of every row under it now, and the runtime columns it
// rolls up in every score.
func TestScale(t *testing.T) {
	b := NewBuilder(nil)
	b.Open("chip")
	b.Open("core")
	b.Leaf("ifu", &PAT{Area: 1, Static: Static{Sub: 0.5, Gate: 0.1}}, 2)
	b.Leaf("exu", &PAT{Area: 2, Static: Static{Sub: 0.7, Gate: 0.2}}, 3)
	b.Scale(b.Close(), 3)
	b.Leaf("l2", &PAT{Area: 4, Static: Static{Sub: 1.0, Gate: 0.3}}, 1)
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

// TestFromPAT builds a leaf from a component model's result through one
// walk: area and leakage as they are, the TDP column from the walk
// compiled at the peak activity, and the runtime column from the same
// walk scored at the runtime activity. Only the score inputs leave a
// scoring Builder, in the order compiling numbered them.
func TestFromPAT(t *testing.T) {
	p := PAT{
		Energy: Energy{Read: 1e-12, Write: 2e-12},
		Static: Static{Sub: 0.1, Gate: 0.05},
		Area:   1e-6,
	}
	walk := func(b *Builder, a Activity) {
		b.Open("block")
		b.Leaf("buf", &p, p.Energy.DynamicPower(a))
		b.Fixed("pad", 2e-6)
		r := b.Close()
		b.AreaOverhead(r, 2)
		b.LeakSaved(r, 0.01)
	}
	b := NewBuilder(nil)
	walk(&b, Activity{Reads: 1e9})
	prog := b.Program()
	slab := make([]float64, prog.SlabLen())
	s := NewScoreBuilder(prog.InputBuf(slab))
	if s.Scoring() == b.Scoring() {
		t.Fatal("compiling and scoring Builders report the same mode")
	}
	walk(&s, Activity{Reads: 5e8})
	if in := s.Inputs(); len(in) != 2 || prog.Inputs != 2 || in[1] != 0.01 {
		t.Fatalf("score inputs %v, program takes %d", in, prog.Inputs)
	}
	sc := prog.Run(slab, 1, 1)
	if sc.Len() != 3 || sc.Area(0) != (p.Area+2e-6)*2 || sc.LeakSaved(0) != 0.01 || sc.RuntimeDynamic(2) != 0 {
		t.Errorf("block rows wrong: area %v, LeakSaved %v, pad runtime %v", sc.Area(0), sc.LeakSaved(0), sc.RuntimeDynamic(2))
	}
	it := sc.Tree().Children[0]
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
	root := buildTree()
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

func TestJSONExport(t *testing.T) {
	root := buildTree()
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
