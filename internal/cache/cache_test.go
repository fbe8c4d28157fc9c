package cache

import (
	"testing"

	"mcpat/internal/array"
	"mcpat/internal/component"
	"mcpat/internal/power"
	"mcpat/internal/tech"
	"mcpat/internal/tech/techtest"
)

// report builds the cache's report tree through the program a chip
// scores, at peakR/peakW reads and writes per second at TDP and
// runR/runW at runtime.
func report(c *Cache, peakR, peakW, runR, runW float64) *power.Item {
	b := power.NewBuilder(nil)
	c.Walk(&b, c.cfg.Name, peakR, peakW)
	prog := b.Program()
	slab := make([]float64, prog.SlabLen())
	s := power.NewScoreBuilder(prog.InputBuf(slab))
	c.Walk(&s, c.cfg.Name, runR, runW)
	if len(s.Inputs()) != prog.Inputs {
		panic("cache: the scoring walk's inputs do not match the compiled report")
	}
	sc := prog.Run(slab, 1, 1)
	return sc.Tree()
}

func resetTiers() {
	component.ResetCache()
	array.ResetCache()
}

func l2cfg() Config {
	return Config{
		Name: "l2", Tech: techtest.Node(65), Dev: tech.HP,
		Bytes: 2 * 1024 * 1024, BlockBytes: 64, Assoc: 8, Banks: 4,
		TargetHz: 2e9,
	}
}

func TestSharedCacheBasics(t *testing.T) {
	c, err := New(l2cfg())
	if err != nil {
		t.Fatal(err)
	}
	if c.Data == nil || c.MSHR == nil || c.WBBuffer == nil {
		t.Fatal("missing subcomponents")
	}
	if c.Directory != nil {
		t.Fatal("directory not requested but present")
	}
	if c.Area <= c.Data.Area {
		t.Error("total area must include MSHR and WB buffer")
	}
	if c.Energy.Read <= c.Data.Energy.Read {
		t.Error("access energy must include the MSHR probe")
	}
	if c.AccessTime() != c.Data.AccessTime {
		t.Error("AccessTime must expose the data array latency")
	}
}

func TestDirectoryAddsCost(t *testing.T) {
	base, _ := New(l2cfg())
	cfg := l2cfg()
	cfg.Directory = true
	cfg.Sharers = 16
	dir, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dir.Directory == nil {
		t.Fatal("directory missing")
	}
	if dir.Area <= base.Area || dir.Energy.Read <= base.Energy.Read {
		t.Error("directory must add area and access energy")
	}
}

func TestLSTPCellsForLargeCaches(t *testing.T) {
	big, err := New(l2cfg()) // 2MB -> LSTP cells by default
	if err != nil {
		t.Fatal(err)
	}
	cfg := l2cfg()
	cfg.CellHP = true
	hp, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if big.Static.Sub >= hp.Static.Sub*0.5 {
		t.Errorf("default LSTP cells (%.3g W) must leak far less than forced HP cells (%.3g W)",
			big.Static.Sub, hp.Static.Sub)
	}
	small := l2cfg()
	small.Bytes = 256 * 1024
	sc, err := New(small)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Cfg().CellDev != tech.HP {
		t.Error("small caches should keep HP cells by default")
	}
	if big.Cfg().CellDev != tech.LSTP {
		t.Error("multi-MB caches should default to LSTP cells")
	}
}

func TestECCOverhead(t *testing.T) {
	// The synthesized data array carries 9/8 of the nominal capacity.
	c, err := New(l2cfg())
	if err != nil {
		t.Fatal(err)
	}
	nominalBits := 2 * 1024 * 1024 * 8
	gotBits := c.Data.Rows * c.Data.Cols * c.Data.Subarrays * c.Data.Banks
	if gotBits < nominalBits*9/8 {
		t.Errorf("data array holds %d bits, want at least %d (ECC)", gotBits, nominalBits*9/8)
	}
}

func TestReportTree(t *testing.T) {
	cfg := l2cfg()
	cfg.Directory = true
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := report(c, 2e9, 1e9, 1e8, 5e7)
	for _, name := range []string{"data", "mshr", "wbbuffer", "directory"} {
		if rep.Find(name) == nil {
			t.Errorf("report missing %s", name)
		}
	}
	if rep.PeakDynamic <= 0 || rep.RuntimeDynamic <= 0 {
		t.Error("report must have both power columns")
	}
	if rep.RuntimeDynamic >= rep.PeakDynamic {
		t.Error("runtime below peak for these rates")
	}
}

func TestCacheValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil tech must fail")
	}
	if _, err := New(Config{Tech: techtest.Node(65)}); err == nil {
		t.Error("zero capacity must fail")
	}
}

// TestTierSwitchesAreIndependent: each memo tier's switch turns off only
// that tier. With the array tier off, the subsystem tier still memoizes
// whole caches; with the subsystem tier off, every rebuild still finds
// its arrays in the array tier.
func TestTierSwitchesAreIndependent(t *testing.T) {
	prevA, prevC := array.SetCacheEnabled(false), component.SetCacheEnabled(true)
	resetTiers()
	t.Cleanup(func() {
		array.SetCacheEnabled(prevA)
		component.SetCacheEnabled(prevC)
		resetTiers()
	})
	synth2 := func() (array.CacheStats, component.KindStats) {
		t.Helper()
		for i := 0; i < 2; i++ {
			if _, err := Synthesize(l2cfg()); err != nil {
				t.Fatal(err)
			}
		}
		return array.Stats(), component.Stats().Kinds[component.KindCache]
	}

	a, c := synth2()
	if a.Bypassed == 0 || a.Hits+a.Misses != 0 || c.Misses != 1 || c.Hits != 1 {
		t.Errorf("array tier off: array %+v, cache kind %+v", a, c)
	}

	array.SetCacheEnabled(true)
	component.SetCacheEnabled(false)
	resetTiers()
	a, c = synth2()
	if c.Bypassed != 2 || c.Hits+c.Misses != 0 || a.Misses == 0 || a.Hits < a.Misses || a.Bypassed != 0 {
		t.Errorf("subsystem tier off: array %+v, cache kind %+v", a, c)
	}
}
