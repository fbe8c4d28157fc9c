package config

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"mcpat/internal/cache"
	"mcpat/internal/chip"
	"mcpat/internal/core"
	"mcpat/internal/guard"
	"mcpat/internal/mc"
	"mcpat/internal/tech"

	"mcpat/internal/validation"
)

const sampleXML = `<?xml version="1.0"?>
<component id="system" type="System">
  <param name="name" value="testchip"/>
  <param name="tech_node_nm" value="45"/>
  <param name="clock_mhz" value="2000"/>
  <param name="vdd" value="1.0"/>
  <param name="device_type" value="HP"/>
  <param name="num_cores" value="4"/>
  <param name="interconnect" value="mesh"/>
  <param name="flit_bits" value="128"/>
  <param name="mesh_x" value="2"/>
  <param name="mesh_y" value="2"/>
  <stat name="noc_flits_per_sec" value="1e9"/>
  <component id="system.core" type="Core">
    <param name="threads" value="2"/>
    <param name="ooo" value="1"/>
    <param name="issue_width" value="4"/>
    <param name="icache_bytes" value="32768"/>
    <param name="dcache_bytes" value="32768"/>
    <param name="int_alus" value="3"/>
    <stat name="int_ops_per_cycle" value="1.7"/>
    <stat name="pipeline_duty" value="0.8"/>
  </component>
  <component id="system.L2" type="CacheUnit">
    <param name="bytes" value="2097152"/>
    <param name="banks" value="4"/>
    <stat name="reads_per_sec" value="2e9"/>
    <stat name="writes_per_sec" value="1e9"/>
  </component>
  <component id="system.mc" type="MemoryController">
    <param name="channels" value="2"/>
    <param name="peak_bandwidth_gbs" value="25"/>
    <stat name="accesses_per_sec" value="3e8"/>
  </component>
</component>`

func TestParseAndAccessors(t *testing.T) {
	root, err := ParseString(sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	if root.ID != "system" || root.Type != "System" {
		t.Fatalf("root = %s/%s", root.ID, root.Type)
	}
	if got := root.ParamInt("num_cores", 0); got != 4 {
		t.Errorf("num_cores = %d", got)
	}
	if got := root.ParamFloat("clock_mhz", 0); got != 2000 {
		t.Errorf("clock_mhz = %v", got)
	}
	if got := root.ParamString("device_type", ""); got != "HP" {
		t.Errorf("device_type = %q", got)
	}
	if !root.Child("core").ParamBool("ooo", false) {
		t.Error("ooo = false, want true")
	}
	if got := root.Child("core").StatFloat("int_ops_per_cycle", 0); got != 1.7 {
		t.Errorf("int_ops stat = %v", got)
	}
	// Defaults for absent entries.
	if got := root.ParamInt("missing", 42); got != 42 {
		t.Errorf("missing default = %d", got)
	}
}

func TestToChipConfig(t *testing.T) {
	root, err := ParseString(sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ToChipConfig(root)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NM != 45 || cfg.ClockHz != 2e9 || cfg.Vdd != 1.0 {
		t.Errorf("system params wrong: %+v", cfg)
	}
	if cfg.NoC.Kind != chip.Mesh || cfg.NoC.MeshX != 2 || cfg.NoC.MeshY != 2 {
		t.Errorf("NoC spec wrong: %+v", cfg.NoC)
	}
	if !cfg.Core.OoO || cfg.Core.IssueWidth != 4 || cfg.Core.ICache.Bytes != 32768 {
		t.Errorf("core config wrong: %+v", cfg.Core)
	}
	if cfg.L2 == nil || cfg.L2.Bytes != 2097152 || cfg.L2.Banks != 4 {
		t.Errorf("L2 config wrong: %+v", cfg.L2)
	}
	if cfg.MC == nil || cfg.MC.PeakBandwidth != 25e9 {
		t.Errorf("MC config wrong: %+v", cfg.MC)
	}
	// The parsed config must actually synthesize.
	if _, err := chip.New(cfg); err != nil {
		t.Fatalf("synthesizing parsed config: %v", err)
	}
}

func TestToStats(t *testing.T) {
	root, _ := ParseString(sampleXML)
	s := ToStats(root)
	if s.CoreRun.IntOp != 1.7 || s.CoreRun.PipelineDuty != 0.8 {
		t.Errorf("core stats wrong: %+v", s.CoreRun)
	}
	if s.L2Reads != 2e9 || s.L2Writes != 1e9 {
		t.Errorf("L2 stats wrong: %v/%v", s.L2Reads, s.L2Writes)
	}
	if s.MCAccesses != 3e8 || s.NoCFlits != 1e9 {
		t.Errorf("traffic stats wrong: %+v", s)
	}
}

func TestRoundTripValidationTargets(t *testing.T) {
	// Every validation descriptor must survive config -> XML -> config.
	for _, target := range validation.All() {
		xmlTree := FromChipConfig(target.Chip)
		text := xmlTree.String()
		parsed, err := ParseString(text)
		if err != nil {
			t.Fatalf("%s: reparse: %v", target.Ref.Name, err)
		}
		got, err := ToChipConfig(parsed)
		if err != nil {
			t.Fatalf("%s: remap: %v", target.Ref.Name, err)
		}
		want := target.Chip
		// Compare the synthesized chips' totals: the round trip must not
		// change the model.
		pw, err := chip.New(want)
		if err != nil {
			t.Fatal(err)
		}
		pg, err := chip.New(got)
		if err != nil {
			t.Fatalf("%s: synthesizing round-tripped config: %v", target.Ref.Name, err)
		}
		if w, g := pw.TDP(), pg.TDP(); !close(w, g, 1e-9) {
			t.Errorf("%s: TDP changed across round trip: %v -> %v", target.Ref.Name, w, g)
		}
		if w, g := pw.Area(), pg.Area(); !close(w, g, 1e-9) {
			t.Errorf("%s: area changed across round trip: %v -> %v", target.Ref.Name, w, g)
		}
	}
}

// TestZeroVCsRoundTrip: a ring or mesh chip with VirtualChannels 0, the
// JSON default, must keep its TDP and area bits across config -> XML ->
// config. The reader defaults an absent noc_vcs to 2, while a router
// reads 0 as one virtual channel.
func TestZeroVCsRoundTrip(t *testing.T) {
	for _, noc := range []chip.NoCSpec{
		{Kind: chip.Ring, FlitBits: 128},
		{Kind: chip.Mesh, FlitBits: 128, MeshX: 4, MeshY: 2},
	} {
		want := validation.Niagara().Chip
		want.NoC = noc
		got, err := ToChipConfig(mustParse(t, FromChipConfig(want).String()))
		if err != nil {
			t.Fatal(err)
		}
		pw, err := chip.New(want)
		if err != nil {
			t.Fatal(err)
		}
		pg, err := chip.New(got)
		if err != nil {
			t.Fatal(err)
		}
		if w, g := pw.TDP(), pg.TDP(); math.Float64bits(w) != math.Float64bits(g) {
			t.Errorf("%v: TDP changed across round trip: %v -> %v", noc.Kind, w, g)
		}
		if w, g := pw.Area(), pg.Area(); math.Float64bits(w) != math.Float64bits(g) {
			t.Errorf("%v: area changed across round trip: %v -> %v", noc.Kind, w, g)
		}
	}
}

func close(a, b, rel float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= rel*(abs(a)+abs(b))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestWriteProducesValidXML(t *testing.T) {
	xmlTree := FromChipConfig(validation.Niagara().Chip)
	text := xmlTree.String()
	if !strings.Contains(text, `<component id="system" type="System">`) {
		t.Error("missing system component")
	}
	if !strings.Contains(text, "tech_node_nm") {
		t.Error("missing tech node param")
	}
	if _, err := ParseString(text); err != nil {
		t.Fatalf("generated XML does not parse: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := ParseString("not xml"); err == nil {
		t.Error("garbage must fail")
	}
	if _, err := ParseString("<component type='System'></component>"); err == nil {
		t.Error("missing id must fail")
	}
	root, _ := ParseString(sampleXML)
	root.SetParam("device_type", "QUANTUM")
	if _, err := ToChipConfig(root); err == nil {
		t.Error("unknown device type must fail")
	}
	root, _ = ParseString(sampleXML)
	root.SetParam("interconnect", "teleport")
	if _, err := ToChipConfig(root); err == nil {
		t.Error("unknown interconnect must fail")
	}
}

// TestNonFiniteParamsRejected: a float param that is NaN or infinite,
// as written or once scaled to SI units, is a config error at its
// component, wherever the component sits in the document.
func TestNonFiniteParamsRejected(t *testing.T) {
	for _, tc := range []struct{ child, name, value string }{
		{"", "tech_node_nm", "inf"},
		{"", "clock_mhz", "1e305"},
		{"", "vdd", "nan"},
		{"", "temperature_k", "-Inf"},
		{"core", "glue_activity", "NaN"},
		{"mc", "peak_bandwidth_gbs", "1e300"},
	} {
		root, err := ParseString(sampleXML)
		if err != nil {
			t.Fatal(err)
		}
		c := root
		if tc.child != "" {
			c = root.Child(tc.child)
		}
		c.SetParam(tc.name, tc.value)
		_, err = ToChipConfig(root)
		if !errors.Is(err, guard.ErrConfig) || guard.PathOf(err) != c.ID {
			t.Errorf("%s %s=%q: got %v, want a config error at %s", c.ID, tc.name, tc.value, err, c.ID)
		}
	}
}

func TestExtendedParamsRoundTrip(t *testing.T) {
	// The newer knobs (ring fabric, eDRAM cells, CAM RAT, power gating,
	// conservative wires) must survive config -> XML -> config.
	cfg, err := ToChipConfig(must(t, `<component id="system" type="System">
	  <param name="tech_node_nm" value="32"/>
	  <param name="clock_mhz" value="2000"/>
	  <param name="num_cores" value="4"/>
	  <param name="interconnect" value="ring"/>
	  <param name="wire_projection" value="conservative"/>
	  <component id="system.core" type="Core">
	    <param name="ooo" value="1"/>
	    <param name="rename_cam" value="1"/>
	    <param name="power_gating" value="1"/>
	  </component>
	  <component id="system.L2" type="CacheUnit">
	    <param name="bytes" value="4194304"/>
	    <param name="edram" value="1"/>
	  </component>
	</component>`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NoC.Kind != chip.Ring {
		t.Error("ring fabric lost")
	}
	if !cfg.Core.RenameCAM || !cfg.Core.PowerGating {
		t.Error("core knobs lost")
	}
	if !cfg.L2.EDRAM {
		t.Error("eDRAM knob lost")
	}
	// Round trip.
	back, err := ToChipConfig(mustParse(t, FromChipConfig(cfg).String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NoC.Kind != chip.Ring || !back.Core.RenameCAM || !back.Core.PowerGating || !back.L2.EDRAM {
		t.Error("extended knobs lost in round trip")
	}
	if back.WireProjection != cfg.WireProjection {
		t.Error("wire projection lost in round trip")
	}
}

func must(t *testing.T, s string) *Component {
	t.Helper()
	return mustParse(t, s)
}

func mustParse(t *testing.T, s string) *Component {
	t.Helper()
	c, err := ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSetParamReplaces(t *testing.T) {
	c := &Component{ID: "x"}
	c.SetParam("a", "1")
	c.SetParam("a", "2")
	if len(c.Params) != 1 || c.Params[0].Value != "2" {
		t.Errorf("SetParam did not replace: %+v", c.Params)
	}
	c.SetStat("s", "1")
	c.SetStat("s", "3")
	if len(c.Stats) != 1 || c.Stats[0].Value != "3" {
		t.Errorf("SetStat did not replace: %+v", c.Stats)
	}
}

func TestFromStatsRoundTrip(t *testing.T) {
	cfg := validation.Niagara().Chip
	root := FromChipConfig(cfg)
	want := &chip.Stats{
		CoreRun: core.Activity{
			ICacheAccess: 0.9, Decode: 0.8, IntOp: 0.7,
			DCacheRead: 0.2, DCacheWrite: 0.1, PipelineDuty: 0.85,
		},
		L2Reads: 1.5e9, L2Writes: 0.5e9,
		NoCFlits:   2e9,
		MCAccesses: 3e8,
	}
	FromStats(root, want)
	parsed, err := ParseString(root.String())
	if err != nil {
		t.Fatal(err)
	}
	got := ToStats(parsed)
	if got.CoreRun.ICacheAccess != 0.9 || got.CoreRun.PipelineDuty != 0.85 {
		t.Errorf("core stats lost: %+v", got.CoreRun)
	}
	if got.L2Reads != 1.5e9 || got.L2Writes != 0.5e9 {
		t.Errorf("L2 stats lost: %v/%v", got.L2Reads, got.L2Writes)
	}
	if got.NoCFlits != 2e9 || got.MCAccesses != 3e8 {
		t.Errorf("traffic stats lost: %+v", got)
	}
}

func TestFromStatsNilSafe(t *testing.T) {
	FromStats(nil, &chip.Stats{})
	FromStats(&Component{ID: "x"}, nil) // must not panic
}

// TestEveryMappedFieldRoundTrips sets every field ToChipConfig reads to
// a non-default value that survives the unit scaling of its parameter
// (MHz, mm², GB/s, Gbps, pJ), and requires config -> XML -> config to
// give back an equal config.
func TestEveryMappedFieldRoundTrips(t *testing.T) {
	l2 := cache.Config{Name: "L2", Bytes: 1 << 21, BlockBytes: 64, Assoc: 8, Banks: 4, Ports: 2,
		MSHRs: 24, WBDepth: 12, Directory: true, Sharers: 8, CellHP: true}
	l3 := cache.Config{Name: "L3", Bytes: 1 << 23, BlockBytes: 128, Assoc: 16, Banks: 8, Ports: 1,
		MSHRs: 32, WBDepth: 20, EDRAM: true}
	want := chip.Config{
		Name: "every-field", NM: 32, ClockHz: 2.5e9, Vdd: 0.9, Temperature: 350,
		Dev: tech.LOP, LongChannel: true, WireProjection: tech.Conservative,
		NumCores: 8, SharedFPUs: 2,
		L2PeakDuty: 0.5, L3PeakDuty: 0.3, MCPeakUtil: 0.6,
		ClockGating: 0.5, ClockSinkMult: 2, OtherArea: 75e-6,
		NoC: chip.NoCSpec{Kind: chip.Mesh, FlitBits: 64, MeshX: 2, MeshY: 4, VirtualChannels: 3, BuffersPerVC: 5},
		Core: core.Config{
			Name: "big", OoO: true, X86: true, Threads: 4,
			FetchWidth: 4, DecodeWidth: 4, IssueWidth: 6, CommitWidth: 4, PipelineDepth: 14,
			ROBEntries: 128, IQEntries: 48, FPIQEntries: 32, PhysIntRegs: 160, PhysFPRegs: 144,
			ArchIntRegs: 32, ArchFPRegs: 32, BTBEntries: 4096, LocalPredEntries: 1024,
			GlobalPredEntries: 4096, ChooserEntries: 4096, RASEntries: 16,
			ITLBEntries: 64, DTLBEntries: 64, IntALUs: 4, FPUs: 2, MulDivs: 1,
			LQEntries: 48, SQEntries: 32, GlueGates: 50000, GlueActivity: 0.25,
			RenameCAM: true, PowerGating: true,
			ICache: core.CacheParams{Bytes: 32 << 10, BlockBytes: 64, Assoc: 4, Banks: 2, Ports: 1},
			DCache: core.CacheParams{Bytes: 64 << 10, BlockBytes: 64, Assoc: 8, Banks: 4, Ports: 2},
		},
		L2: &l2,
		L3: &l3,
		MC: &mc.Config{Channels: 2, DataBusBits: 72, PeakBandwidth: 25.6e9,
			RequestDepth: 48, ReadDepth: 40, WriteDepth: 24, PHYPJPerBit: 3e-12},
		NIU:  &mc.NIUConfig{Bandwidth: 20e9, Count: 2, PJPerBit: 4e-12},
		PCIe: &mc.PCIeConfig{Lanes: 16, GbpsPerLane: 5},
	}
	got, err := ToChipConfig(mustParse(t, FromChipConfig(want).String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the config:\n got %+v\nwant %+v", got, want)
		for _, c := range []struct {
			name      string
			got, want any
		}{{"L2", *got.L2, l2}, {"L3", *got.L3, l3}, {"MC", *got.MC, *want.MC}} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Errorf("%s: got %+v, want %+v", c.name, c.got, c.want)
			}
		}
	}
}

// Fields that XML does not carry. A field added to chip.Config or
// chip.Stats needs a schema entry or a place on one of these lists.
var (
	// jsonOnly fields have no XML entry; only the native JSON form
	// carries them.
	jsonOnly = []string{
		"Config.CorePeak", "Config.NoC.ClusterSize", "Config.Core.DatapathBits",
		"Config.Core.ICache.MSHRs", "Config.Core.DCache.MSHRs",
		"Config.L2.CellDev", "Config.L2.TargetHz", "Config.L3.CellDev", "Config.L3.TargetHz",
		"Stats.ClusterBusTransfers",
	}
	// fromChip fields of the parts are overwritten by chip.New with
	// the chip's own values.
	fromChip = []string{
		"Config.Core.Tech", "Config.Core.Dev", "Config.Core.LongChannel", "Config.Core.ClockHz",
		"Config.L2.Tech", "Config.L2.Dev", "Config.L2.LongChannel",
		"Config.L3.Tech", "Config.L3.Dev", "Config.L3.LongChannel",
		"Config.MC.Tech", "Config.MC.Dev", "Config.MC.LongChannel",
		"Config.NIU.Tech", "Config.NIU.Dev", "Config.NIU.LongChannel",
		"Config.PCIe.Tech", "Config.PCIe.Dev", "Config.PCIe.LongChannel",
	}
)

// TestEveryFieldIsMappedOrListed fills every exported field of
// chip.Config and chip.Stats, twice with different values, and sends
// them through XML and back. A field that comes back both times must
// not be listed in jsonOnly or fromChip; one that does not must be. A
// listed struct covers its fields.
func TestEveryFieldIsMappedOrListed(t *testing.T) {
	listed := map[string]bool{}
	for _, p := range append(append([]string(nil), jsonOnly...), fromChip...) {
		listed[p] = true
	}
	covered := func(path string) string {
		for p := path; ; p = p[:strings.LastIndex(p, ".")] {
			if listed[p] {
				return p
			}
			if !strings.Contains(p, ".") {
				return ""
			}
		}
	}
	type document struct {
		Config chip.Config
		Stats  chip.Stats
	}
	carried := map[string]int{}
	for run := 1; run <= 2; run++ {
		var want, got document
		i := 0
		leaves(reflect.ValueOf(&want).Elem(), "", true, func(path string, f reflect.Value) {
			fill(t, path, f, run, i)
			i++
		})
		root := FromChipConfig(want.Config)
		FromStats(root, &want.Stats)
		parsed := mustParse(t, root.String())
		var err error
		if got.Config, err = ToChipConfig(parsed); err != nil {
			t.Fatal(err)
		}
		got.Stats = *ToStats(parsed)
		filled := map[string]reflect.Value{}
		leaves(reflect.ValueOf(&want).Elem(), "", false, func(path string, f reflect.Value) {
			filled[path] = f
			carried[path] += 0
		})
		leaves(reflect.ValueOf(&got).Elem(), "", false, func(path string, f reflect.Value) {
			if sameLeaf(filled[path], f) {
				carried[path]++
			}
		})
	}
	used := map[string]bool{}
	for path, n := range carried {
		list := covered(path)
		used[list] = true
		switch {
		case n == 2 && list != "":
			t.Errorf("%s round-trips through XML but is listed as not carried", path)
		case n < 2 && list == "":
			t.Errorf("%s does not round-trip through XML: add a schema entry or list it", path)
		}
	}
	for path := range listed {
		if !used[path] {
			t.Errorf("listed field %s does not exist", path)
		}
	}
}

// leaves calls fn on every leaf field under v with its dotted path.
// Nil pointers to structs are allocated when alloc is set and skipped
// otherwise; a struct with unexported fields, such as tech.Node, is a
// leaf.
func leaves(v reflect.Value, path string, alloc bool, fn func(string, reflect.Value)) {
	join := func(name string) string {
		if path == "" {
			return name
		}
		return path + "." + name
	}
	switch {
	case v.Kind() == reflect.Pointer && exportedStruct(v.Type().Elem()):
		if v.IsNil() {
			if !alloc {
				return
			}
			v.Set(reflect.New(v.Type().Elem()))
		}
		leaves(v.Elem(), path, alloc, fn)
	case exportedStruct(v.Type()):
		for i := 0; i < v.NumField(); i++ {
			leaves(v.Field(i), join(v.Type().Field(i).Name), alloc, fn)
		}
	default:
		fn(path, v)
	}
}

func exportedStruct(t reflect.Type) bool {
	if t.Kind() != reflect.Struct {
		return false
	}
	for i := 0; i < t.NumField(); i++ {
		if !t.Field(i).IsExported() {
			return false
		}
	}
	return true
}

// fill sets leaf i to a value of run that no reader default matches.
func fill(t *testing.T, path string, f reflect.Value, run, i int) {
	switch p := f.Addr().Interface().(type) {
	case *tech.DeviceType:
		*p = [...]tech.DeviceType{tech.LSTP, tech.LOP}[run-1]
	case *tech.Projection:
		*p = tech.Conservative
	case *chip.InterconnectKind:
		*p = chip.Mesh
	default:
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(int64(1000*run + i))
		case reflect.Float64:
			f.SetFloat(float64(1000*run+i) + 0.5)
		case reflect.Bool:
			f.SetBool(run == 1)
		case reflect.String:
			f.SetString(fmt.Sprintf("s%d-%d", run, i))
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		default:
			t.Fatalf("%s: no filler for %v", path, f.Type())
		}
	}
}

// sameLeaf compares floats to a relative 1e-9, which the unit scaling
// of float parameters keeps.
func sameLeaf(want, got reflect.Value) bool {
	if !want.IsValid() {
		return false
	}
	if want.Kind() == reflect.Float64 {
		return close(want.Float(), got.Float(), 1e-9)
	}
	return reflect.DeepEqual(want.Interface(), got.Interface())
}
