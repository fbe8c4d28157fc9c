package core

import (
	"math"
	"testing"
	"testing/quick"

	"mcpat/internal/power"
	"mcpat/internal/tech"
	"mcpat/internal/tech/techtest"
)

// report builds the core's report tree through the program a chip
// scores: its walk compiled at peak, the TDP activity, and scored at
// run, the runtime activity (the zero Activity for none).
func report(c *Core, peak, run Activity) *power.Item {
	b := power.NewBuilder(nil)
	c.Walk(&b, c.Cfg.Name, &peak)
	prog := b.Program()
	slab := make([]float64, prog.SlabLen())
	s := power.NewScoreBuilder(prog.InputBuf(slab))
	c.Walk(&s, c.Cfg.Name, &run)
	if len(s.Inputs()) != prog.Inputs {
		panic("core: the scoring walk's inputs do not match the compiled report")
	}
	sc := prog.Run(slab, 1, 1)
	return sc.Tree()
}

// niagaraCfg is a Sun Niagara (UltraSPARC T1) style in-order core: 4
// threads, single issue, 16KB I$ / 8KB D$, shared FPU (not in the core).
func niagaraCfg() Config {
	return Config{
		Name:       "niagara-core",
		Tech:       techtest.Node(90),
		Dev:        tech.HP,
		ClockHz:    1.2e9,
		Threads:    4,
		FetchWidth: 1, DecodeWidth: 1, IssueWidth: 1, CommitWidth: 1,
		PipelineDepth: 6,
		ICache:        CacheParams{Bytes: 16 * 1024, BlockBytes: 32, Assoc: 4},
		DCache:        CacheParams{Bytes: 8 * 1024, BlockBytes: 16, Assoc: 4},
		ITLBEntries:   64, DTLBEntries: 64,
		IntALUs: 1, MulDivs: 1,
		LQEntries: 8, SQEntries: 8,
	}
}

// alphaCfg is an Alpha 21264/21364-class out-of-order core.
func alphaCfg() Config {
	return Config{
		Name:       "alpha-core",
		Tech:       techtest.Node(180),
		Dev:        tech.HP,
		ClockHz:    1.2e9,
		OoO:        true,
		FetchWidth: 4, DecodeWidth: 4, IssueWidth: 6, CommitWidth: 4,
		PipelineDepth: 7,
		ROBEntries:    80, IQEntries: 20, FPIQEntries: 15,
		PhysIntRegs: 80, PhysFPRegs: 72,
		ICache:            CacheParams{Bytes: 64 * 1024, BlockBytes: 64, Assoc: 2},
		DCache:            CacheParams{Bytes: 64 * 1024, BlockBytes: 64, Assoc: 2},
		BTBEntries:        512,
		LocalPredEntries:  1024,
		GlobalPredEntries: 4096,
		ChooserEntries:    4096,
		RASEntries:        32,
		ITLBEntries:       128, DTLBEntries: 128,
		IntALUs: 4, FPUs: 2, MulDivs: 1,
		LQEntries: 32, SQEntries: 32,
	}
}

func TestNiagaraCorePlausible(t *testing.T) {
	c, err := New(niagaraCfg())
	if err != nil {
		t.Fatal(err)
	}
	rep := report(c, PeakActivity(c.Cfg), Activity{})
	t.Logf("Niagara-like core @90nm 1.2GHz: area=%.2f mm^2 peakDyn=%.2f W leak=%.3f W total=%.2f W",
		rep.Area*1e6, rep.PeakDynamic, rep.Leakage(), rep.Peak())
	if mm2 := rep.Area * 1e6; mm2 < 3 || mm2 > 20 {
		t.Errorf("core area = %.2f mm^2, want 3-20 (published ~12)", mm2)
	}
	if w := rep.Peak(); w < 1 || w > 8 {
		t.Errorf("core peak power = %.2f W, want 1-8 (published ~4)", w)
	}
	for _, unit := range []string{"IFU", "EXU", "LSU", "MMU", "InstQueue"} {
		if rep.Find(unit) == nil {
			t.Errorf("missing unit %s in report", unit)
		}
	}
	if rep.Find("RenameUnit") != nil {
		t.Error("in-order core must not have a rename unit")
	}
}

func TestAlphaCorePlausible(t *testing.T) {
	c, err := New(alphaCfg())
	if err != nil {
		t.Fatal(err)
	}
	rep := report(c, PeakActivity(c.Cfg), Activity{})
	t.Logf("Alpha-like OoO core @180nm 1.2GHz: area=%.1f mm^2 peakDyn=%.1f W leak=%.2f W total=%.1f W",
		rep.Area*1e6, rep.PeakDynamic, rep.Leakage(), rep.Peak())
	// 21364's EV68 core was ~115 mm^2 at 180 nm including L1s; power
	// budget ~60-70 W of the 125 W chip.
	if mm2 := rep.Area * 1e6; mm2 < 30 || mm2 > 160 {
		t.Errorf("OoO core area = %.1f mm^2, want 30-160", mm2)
	}
	if w := rep.Peak(); w < 15 || w > 100 {
		t.Errorf("OoO core peak = %.1f W, want 15-100", w)
	}
	for _, unit := range []string{"RenameUnit", "Scheduler"} {
		if rep.Find(unit) == nil {
			t.Errorf("missing OoO unit %s", unit)
		}
	}
}

func TestOoOCostsMoreThanInOrder(t *testing.T) {
	n := techtest.Node(65)
	mk := func(ooo bool) float64 {
		cfg := niagaraCfg()
		cfg.Tech = n
		cfg.OoO = ooo
		if ooo {
			cfg.FetchWidth, cfg.DecodeWidth, cfg.IssueWidth, cfg.CommitWidth = 4, 4, 4, 4
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return report(c, PeakActivity(c.Cfg), Activity{}).Peak()
	}
	inorder, ooo := mk(false), mk(true)
	if ooo <= inorder*1.5 {
		t.Errorf("OoO core (%.2f W) should cost well over an in-order core (%.2f W)", ooo, inorder)
	}
}

func TestRuntimeBelowPeak(t *testing.T) {
	c, err := New(niagaraCfg())
	if err != nil {
		t.Fatal(err)
	}
	peak := PeakActivity(c.Cfg)
	run := peak.Scale(0.5)
	rep := report(c, peak, run)
	if rep.RuntimeDynamic <= 0 {
		t.Fatal("runtime dynamic power missing")
	}
	if rep.RuntimeDynamic >= rep.PeakDynamic {
		t.Errorf("runtime (%.2f) must be below peak (%.2f) at half activity", rep.RuntimeDynamic, rep.PeakDynamic)
	}
	ratio := rep.RuntimeDynamic / rep.PeakDynamic
	if ratio < 0.3 || ratio > 0.7 {
		t.Errorf("half activity should give roughly half power, got ratio %.2f", ratio)
	}
}

func TestMultithreadingGrowsCore(t *testing.T) {
	mk := func(threads int) float64 {
		cfg := niagaraCfg()
		cfg.Threads = threads
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return report(c, PeakActivity(c.Cfg), Activity{}).Area
	}
	if mk(4) <= mk(1) {
		t.Error("4-thread core must be larger than 1-thread core")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing tech must fail")
	}
	if _, err := New(Config{Tech: techtest.Node(90)}); err == nil {
		t.Error("missing clock must fail")
	}
}

func TestDefaultsApplied(t *testing.T) {
	cfg := Config{Name: "d", Tech: techtest.Node(45), ClockHz: 2e9, OoO: true}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cfg.ROBEntries == 0 || c.Cfg.PhysIntRegs == 0 || c.Cfg.ICache.Bytes == 0 {
		t.Errorf("OoO defaults not applied: %+v", c.Cfg)
	}
	if c.Cfg.PipelineDepth != 14 {
		t.Errorf("OoO default pipeline = %d, want 14", c.Cfg.PipelineDepth)
	}
}

func TestPeakActivityShape(t *testing.T) {
	a := PeakActivity(niagaraCfg())
	if a.ICacheAccess != 1.0 {
		t.Errorf("TDP icache duty = %v, want 1.0", a.ICacheAccess)
	}
	if a.Rename != 0 || a.IQWakeup != 0 {
		t.Error("in-order TDP must not have rename/wakeup activity")
	}
	ao := PeakActivity(alphaCfg())
	if ao.Rename <= 0 || ao.IQIssue <= 0 || ao.ROBAcc <= 0 {
		t.Error("OoO TDP must include rename/issue/ROB activity")
	}
	if ao.IntOp > float64(alphaCfg().IssueWidth) {
		t.Error("TDP IntOps cannot exceed issue width")
	}
}

func TestActivityScale(t *testing.T) {
	a := PeakActivity(niagaraCfg())
	h := a.Scale(0.5)
	if math.Abs(h.ICacheAccess-0.5*a.ICacheAccess) > 1e-12 ||
		math.Abs(h.DCacheRead-0.5*a.DCacheRead) > 1e-12 {
		t.Error("Scale must multiply every field")
	}
}

func TestQuickCoreScalesWithWidth(t *testing.T) {
	n := techtest.Node(32)
	f := func(w uint8) bool {
		width := int(w%6) + 1
		cfg := Config{
			Name: "q", Tech: n, ClockHz: 2e9, OoO: true,
			FetchWidth: width, DecodeWidth: width, IssueWidth: width, CommitWidth: width,
			IntALUs: width, FPUs: 1, MulDivs: 1,
		}
		c, err := New(cfg)
		if err != nil {
			return false
		}
		rep := report(c, PeakActivity(c.Cfg), Activity{})
		return rep.Area > 0 && rep.PeakDynamic > 0 && rep.Leakage() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestRenameCAMAlternative(t *testing.T) {
	ram := alphaCfg()
	cam := alphaCfg()
	cam.RenameCAM = true
	cr, err := New(ram)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := New(cam)
	if err != nil {
		t.Fatal(err)
	}
	pr := report(cr, PeakActivity(ram), Activity{})
	pc := report(cc, PeakActivity(cam), Activity{})
	ratRAM := pr.Find("rat.int")
	ratCAM := pc.Find("rat.int")
	if ratRAM == nil || ratCAM == nil {
		t.Fatal("missing RAT in report")
	}
	if ratCAM.PeakDynamic <= 0 || ratRAM.PeakDynamic <= 0 {
		t.Fatal("both RAT styles must report power")
	}

	// The trade-off McPAT exposes: CAM RAT energy scales with the
	// physical register count (search over all entries), RAM RAT with
	// the architectural count - so growing the physical file hurts the
	// CAM organization much more.
	grow := func(camStyle bool) float64 {
		cfg := alphaCfg()
		cfg.RenameCAM = camStyle
		cfg.PhysIntRegs = 320
		cfg.PhysFPRegs = 320
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return report(c, PeakActivity(cfg), Activity{}).Find("rat.int").PeakDynamic
	}
	camGrowth := grow(true) / ratCAM.PeakDynamic
	ramGrowth := grow(false) / ratRAM.PeakDynamic
	if camGrowth <= ramGrowth {
		t.Errorf("quadrupling physical registers should hurt CAM RAT (%.2fx) more than RAM RAT (%.2fx)",
			camGrowth, ramGrowth)
	}
}

func TestPowerGating(t *testing.T) {
	plain := niagaraCfg()
	gated := niagaraCfg()
	gated.PowerGating = true
	cp, err := New(plain)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := New(gated)
	if err != nil {
		t.Fatal(err)
	}
	peak := PeakActivity(plain)
	halfIdle := peak.Scale(0.5) // PipelineDuty 0.45

	rp := report(cp, peak, halfIdle)
	rg := report(cg, peak, halfIdle)

	// Sleep transistors cost area.
	if rg.Area <= rp.Area {
		t.Error("power gating must add area")
	}
	// Peak (TDP) unchanged in leakage terms: gates awake.
	if rg.Peak() < rp.Peak()*0.99 {
		t.Error("power gating must not reduce TDP")
	}
	// Runtime power drops: idle leakage is gated off.
	if rg.Runtime() >= rp.Runtime() {
		t.Errorf("gated runtime (%.2f W) must beat ungated (%.2f W)", rg.Runtime(), rp.Runtime())
	}
	if rg.LeakSaved <= 0 {
		t.Error("gated core must report leakage savings")
	}
	// No savings reported without runtime statistics.
	r0 := report(cg, peak, Activity{})
	if r0.LeakSaved != 0 {
		t.Error("no runtime stats -> no gating savings to report")
	}
}

func TestCoreTimings(t *testing.T) {
	c, err := New(alphaCfg())
	if err != nil {
		t.Fatal(err)
	}
	ts := c.Timings()
	if len(ts) < 10 {
		t.Fatalf("OoO core should report many timed components, got %d", len(ts))
	}
	seen := map[string]bool{}
	for _, x := range ts {
		seen[x.Name] = true
		if x.Delay <= 0 {
			t.Errorf("%s: non-positive delay", x.Name)
		}
	}
	for _, want := range []string{"icache", "rat.int", "iq.int", "rob", "alu", "fpu-stage"} {
		if !seen[want] {
			t.Errorf("missing timing for %s", want)
		}
	}
	inorder, _ := New(niagaraCfg())
	for _, x := range inorder.Timings() {
		if x.Name == "rob" || x.Name == "rat.int" {
			t.Error("in-order core must not report OoO structures")
		}
	}
}
