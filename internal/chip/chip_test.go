package chip

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"mcpat/internal/cache"
	"mcpat/internal/core"
	"mcpat/internal/guard"
	"mcpat/internal/mc"
	"mcpat/internal/tech"
)

func manycoreCfg(cores int, kind InterconnectKind) Config {
	mx, my := 1, 1
	for mx*my < cores {
		if mx < my {
			mx *= 2
		} else {
			my *= 2
		}
	}
	return Config{
		Name:     "cmp",
		NM:       45,
		ClockHz:  2e9,
		NumCores: cores,
		Core: core.Config{
			Threads: 2,
			ICache:  core.CacheParams{Bytes: 16 * 1024},
			DCache:  core.CacheParams{Bytes: 16 * 1024},
			IntALUs: 1, MulDivs: 1, FPUs: 1,
		},
		L2: &cache.Config{Name: "L2", Bytes: cores * 512 * 1024, Banks: cores, Assoc: 8},
		NoC: NoCSpec{
			Kind: kind, FlitBits: 128, MeshX: mx, MeshY: my,
			VirtualChannels: 2, BuffersPerVC: 4,
		},
		MC: &mc.Config{Channels: 2, PeakBandwidth: 25e9, LVDS: true},
	}
}

func TestChipBuildAndReport(t *testing.T) {
	p, err := New(manycoreCfg(8, Mesh))
	if err != nil {
		t.Fatal(err)
	}
	rep := p.Report(nil)
	for _, name := range []string{"Cores", "L2", "NoC", "MemoryController", "ClockNetwork"} {
		if rep.Find(name) == nil {
			t.Errorf("report missing %s", name)
		}
	}
	if rep.Peak() <= 0 || rep.Area <= 0 {
		t.Fatal("chip totals must be positive")
	}
	if p.TDP() != rep.Peak() {
		t.Error("TDP() must match the report total")
	}
	out := rep.Format(1)
	if !strings.Contains(out, "Cores") || !strings.Contains(out, "mm^2") {
		t.Error("formatted report incomplete")
	}
}

func TestInterconnectKinds(t *testing.T) {
	for _, kind := range []InterconnectKind{NoneIC, Bus, Crossbar, Mesh} {
		p, err := New(manycoreCfg(4, kind))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		rep := p.Report(nil)
		switch kind {
		case NoneIC:
			if rep.Find("NoC") != nil || rep.Find("Bus") != nil || rep.Find("Crossbar") != nil {
				t.Errorf("%v: unexpected fabric in report", kind)
			}
		case Bus:
			if rep.Find("Bus") == nil {
				t.Errorf("%v: missing fabric", kind)
			}
		case Crossbar:
			if rep.Find("Crossbar") == nil {
				t.Errorf("%v: missing fabric", kind)
			}
		case Mesh:
			if rep.Find("NoC") == nil {
				t.Errorf("%v: missing fabric", kind)
			}
		}
	}
}

// TestMeshRequiresTopology pins the fabric's configuration errors: an
// unknown kind, a zero flit width on any fabric, and a mesh without
// topology are each an ErrConfig at the chip's ".noc" path.
func TestMeshRequiresTopology(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kind   InterconnectKind
		mutate func(*NoCSpec)
	}{
		{"kind 9", 9, func(*NoCSpec) {}},
		{"kind -1", -1, func(*NoCSpec) {}},
		{"bus flit 0", Bus, func(n *NoCSpec) { n.FlitBits = 0 }},
		{"crossbar flit 0", Crossbar, func(n *NoCSpec) { n.FlitBits = 0 }},
		{"mesh flit 0", Mesh, func(n *NoCSpec) { n.FlitBits = 0 }},
		{"ring flit 0", Ring, func(n *NoCSpec) { n.FlitBits = 0 }},
		{"mesh without topology", Mesh, func(n *NoCSpec) { n.MeshX, n.MeshY = 0, 0 }},
	} {
		cfg := manycoreCfg(8, tc.kind)
		tc.mutate(&cfg.NoC)
		p, err := New(cfg)
		if p != nil || !errors.Is(err, guard.ErrConfig) || guard.PathOf(err) != "cmp.noc" {
			t.Errorf("%s: New built a chip: %t, err %v; want ErrConfig at cmp.noc", tc.name, p != nil, err)
		}
	}
}

// TestPanickingBuilderIsInternal pins New's containment boundary: a
// builder that panics mid-walk yields no processor and an ErrInternal
// at the chip path.
func TestPanickingBuilderIsInternal(t *testing.T) {
	saved := subsystems
	defer func() { subsystems = saved }()
	subsystems = slices.Clone(saved)
	subsystems[1].build = func(*builder) (float64, error) { panic("poisoned l2") }

	p, err := New(manycoreCfg(8, Mesh))
	if p != nil || !errors.Is(err, guard.ErrInternal) || guard.PathOf(err) != "cmp" {
		t.Fatalf("New = %v, %v; want nil and ErrInternal at cmp", p, err)
	}
}

// TestPanickingPartIsInternal pins the Score containment boundary: a
// part that panics makes Score and ReportE return ErrInternal at
// "<name>.Report", and Report the empty item named after the chip; so
// does a score whose parts write fewer inputs than the report compiled
// into its slab has.
func TestPanickingPartIsInternal(t *testing.T) {
	p, err := New(manycoreCfg(8, Mesh))
	if err != nil {
		t.Fatal(err)
	}
	var slab Slab
	if _, err := p.Score(runStats(), &slab); err != nil {
		t.Fatal(err)
	}
	l2 := p.L2
	p.L2 = nil // the slab's report still has the L2's rows
	if _, err := p.Score(runStats(), &slab); !errors.Is(err, guard.ErrInternal) || guard.PathOf(err) != "cmp.Report" {
		t.Errorf("missing L2 inputs: Score error %v; want ErrInternal at cmp.Report", err)
	}
	p.L2 = l2

	p.CoreModel = nil
	if _, err := p.Score(runStats(), &Slab{}); !errors.Is(err, guard.ErrInternal) || guard.PathOf(err) != "cmp.Report" {
		t.Errorf("Score error %v; want ErrInternal at cmp.Report", err)
	}
	if rep, err := p.ReportE(runStats()); rep != nil || !errors.Is(err, guard.ErrInternal) || guard.PathOf(err) != "cmp.Report" {
		t.Errorf("ReportE = %v, %v; want nil and ErrInternal at cmp.Report", rep, err)
	}
	rep := p.Report(nil)
	if rep.Name != "cmp" || len(rep.Children) != 0 || rep.Area != 0 || rep.Peak() != 0 {
		t.Errorf("Report = %+v; want the empty item named cmp", *rep)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero cores must fail")
	}
	if _, err := New(Config{NumCores: 1}); err == nil {
		t.Error("zero clock must fail")
	}
	if _, err := New(Config{NumCores: 1, ClockHz: 1e9, NM: 5}); err == nil {
		t.Error("unsupported node must fail")
	}
}

func TestVddOverrideChangesPower(t *testing.T) {
	lo := manycoreCfg(4, NoneIC)
	lo.Vdd = 0.9
	hi := manycoreCfg(4, NoneIC)
	hi.Vdd = 1.1
	pl, err := New(lo)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := New(hi)
	if err != nil {
		t.Fatal(err)
	}
	if ph.TDP() <= pl.TDP() {
		t.Errorf("higher Vdd must raise TDP: %.1f <= %.1f", ph.TDP(), pl.TDP())
	}
}

func TestTemperatureRaisesLeakage(t *testing.T) {
	cold := manycoreCfg(4, NoneIC)
	cold.Temperature = 320
	hot := manycoreCfg(4, NoneIC)
	hot.Temperature = 380
	pc, _ := New(cold)
	ph, _ := New(hot)
	if ph.Leakage() <= pc.Leakage() {
		t.Errorf("380K leakage (%.1f W) must exceed 320K (%.1f W)", ph.Leakage(), pc.Leakage())
	}
}

func TestLongChannelCutsLeakage(t *testing.T) {
	std := manycoreCfg(4, NoneIC)
	lc := manycoreCfg(4, NoneIC)
	lc.LongChannel = true
	ps, _ := New(std)
	pl, _ := New(lc)
	if pl.Leakage() >= ps.Leakage() {
		t.Errorf("long-channel leakage (%.1f W) must be below standard (%.1f W)", pl.Leakage(), ps.Leakage())
	}
}

func TestDeviceTypeTradeoff(t *testing.T) {
	hp := manycoreCfg(4, NoneIC)
	lstp := manycoreCfg(4, NoneIC)
	lstp.Dev = tech.LSTP
	ph, _ := New(hp)
	pl, err := New(lstp)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Leakage() >= ph.Leakage() {
		t.Error("LSTP chip must leak less than HP chip")
	}
}

func TestMeshScalingGrowsNoCShare(t *testing.T) {
	share := func(cores int) float64 {
		p, err := New(manycoreCfg(cores, Mesh))
		if err != nil {
			t.Fatal(err)
		}
		rep := p.Report(nil)
		return rep.Find("NoC").Peak() / rep.Peak()
	}
	s4, s16 := share(4), share(16)
	if s16 <= s4 {
		t.Errorf("NoC power share must grow with core count: %.3f <= %.3f", s16, s4)
	}
}

func TestRuntimeStats(t *testing.T) {
	p, err := New(manycoreCfg(8, Mesh))
	if err != nil {
		t.Fatal(err)
	}
	stats := &Stats{
		CoreRun:    p.CorePeakActivity().Scale(0.6),
		L2Reads:    2e9,
		L2Writes:   1e9,
		NoCFlits:   1e9,
		MCAccesses: 2e8,
	}
	rep := p.Report(stats)
	if rep.RuntimeDynamic <= 0 || rep.RuntimeDynamic >= rep.PeakDynamic {
		t.Errorf("runtime dynamic %.2f W out of range (peak %.2f W)", rep.RuntimeDynamic, rep.PeakDynamic)
	}
}

func TestRingInterconnect(t *testing.T) {
	p, err := New(manycoreCfg(8, Ring))
	if err != nil {
		t.Fatal(err)
	}
	rep := p.Report(nil)
	ring := rep.Find("Ring")
	if ring == nil {
		t.Fatal("missing Ring in report")
	}
	if ring.Find("routers") == nil || ring.Find("links") == nil {
		t.Error("ring must break down into routers and links")
	}
	if ring.Peak() <= 0 || ring.Area <= 0 {
		t.Error("ring must carry power and area")
	}
	// A ring's 3-port routers are cheaper than mesh 5-port routers, but
	// it has more stations; both fabrics must be same order of magnitude.
	mesh, _ := New(manycoreCfg(8, Mesh))
	meshNoC := mesh.Report(nil).Find("NoC")
	ratio := ring.Peak() / meshNoC.Peak()
	if ratio < 0.1 || ratio > 10 {
		t.Errorf("ring/mesh power ratio %.2f implausible", ratio)
	}
}

func TestClusteredMeshFabric(t *testing.T) {
	cfg := manycoreCfg(16, Mesh)
	cfg.NoC.ClusterSize = 4
	cfg.NoC.MeshX, cfg.NoC.MeshY = 2, 2
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := p.Report(nil)
	noc := rep.Find("NoC")
	if noc.Find("clusterbus") == nil {
		t.Fatal("clustered mesh must include cluster buses")
	}
	// Flat mesh of 16 routers must burn more fabric power than 4 routers
	// + 4 buses.
	flat := manycoreCfg(16, Mesh)
	pf, _ := New(flat)
	if noc.Peak() >= pf.Report(nil).Find("NoC").Peak() {
		t.Error("clustering must reduce fabric power")
	}
}

func TestTimingReport(t *testing.T) {
	p, err := New(manycoreCfg(4, Mesh))
	if err != nil {
		t.Fatal(err)
	}
	entries := p.TimingReport()
	if len(entries) < 8 {
		t.Fatalf("timing report too short: %d entries", len(entries))
	}
	// Sorted by descending cycle count.
	for i := 1; i < len(entries); i++ {
		if entries[i].Cycles > entries[i-1].Cycles+1e-12 {
			t.Fatal("timing report must be sorted by cycles, descending")
		}
	}
	names := map[string]bool{}
	for _, e := range entries {
		names[e.Component] = true
		if e.Delay <= 0 || e.Cycle <= 0 {
			t.Errorf("%s: non-positive timing", e.Component)
		}
	}
	for _, want := range []string{"L2", "core.icache", "core.rf.int", "noc.router"} {
		if !names[want] {
			t.Errorf("timing report missing %s", want)
		}
	}
}

func TestVFScan(t *testing.T) {
	cfg := manycoreCfg(4, NoneIC)
	pts, err := VFScan(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("expected 5 default points, got %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Vdd <= pts[i-1].Vdd {
			t.Error("Vdd must increase along the scan")
		}
		if pts[i].ClockHz <= pts[i-1].ClockHz {
			t.Error("frequency must increase with voltage")
		}
		if pts[i].TDP <= pts[i-1].TDP {
			t.Error("TDP must increase with voltage")
		}
	}
	// Energy per cycle improves at lower voltage (the DVFS rationale).
	if pts[0].EnergyPerCycle >= pts[len(pts)-1].EnergyPerCycle {
		t.Error("low-voltage points should win energy per cycle")
	}
	// Scanning below Vth must fail cleanly.
	if _, err := VFScan(cfg, []float64{0.05}); err == nil {
		t.Error("near-Vth scan must fail")
	}
}

func TestEDRAMChipIntegration(t *testing.T) {
	cfg := manycoreCfg(4, NoneIC)
	cfg.L2.EDRAM = true
	pe, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sr := manycoreCfg(4, NoneIC)
	ps, _ := New(sr)
	if pe.Report(nil).Find("L2").Area >= ps.Report(nil).Find("L2").Area {
		t.Error("eDRAM L2 must be smaller than SRAM L2")
	}
}

// TestPeakDutyDefaults pins the documented TDP duty-cycle defaults. The
// validation descriptors are calibrated against these exact values: the
// L2 duty default is 1.0 (a doc comment once claimed 0.8 — an explicit
// 0.8 produces a measurably different report, as asserted below), and
// the L3 default is 0.4.
func TestPeakDutyDefaults(t *testing.T) {
	base := manycoreCfg(4, Mesh)
	p, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cfg.L2PeakDuty != 1.0 {
		t.Errorf("L2PeakDuty default = %v, want 1.0", p.Cfg.L2PeakDuty)
	}
	if p.Cfg.L3PeakDuty != 0.4 {
		t.Errorf("L3PeakDuty default = %v, want 0.4", p.Cfg.L3PeakDuty)
	}
	if p.Cfg.MCPeakUtil != 0.8 {
		t.Errorf("MCPeakUtil default = %v, want 0.8", p.Cfg.MCPeakUtil)
	}
	if p.Cfg.ClockGating != 0.75 {
		t.Errorf("ClockGating default = %v, want 0.75", p.Cfg.ClockGating)
	}

	// The default must be equivalent to an explicit 1.0 ...
	explicit := manycoreCfg(4, Mesh)
	explicit.L2PeakDuty = 1.0
	pe, err := New(explicit)
	if err != nil {
		t.Fatal(err)
	}
	defL2 := p.Report(nil).Find("L2").PeakDynamic
	if got := pe.Report(nil).Find("L2").PeakDynamic; got != defL2 {
		t.Errorf("explicit L2PeakDuty=1.0 gives L2 peak %v, default gives %v", got, defL2)
	}

	// ... and distinguishable from the historically mis-documented 0.8.
	low := manycoreCfg(4, Mesh)
	low.L2PeakDuty = 0.8
	pl, err := New(low)
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.Report(nil).Find("L2").PeakDynamic; got >= defL2 {
		t.Errorf("L2PeakDuty=0.8 L2 peak %v should be below the 1.0 default's %v", got, defL2)
	}
}
