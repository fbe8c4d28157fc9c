package config

import (
	"cmp"
	"math"
	"strconv"
	"strings"

	"mcpat/internal/cache"
	"mcpat/internal/chip"
	"mcpat/internal/core"
	"mcpat/internal/guard"
	"mcpat/internal/mc"
	"mcpat/internal/tech"
)

// The XML schema understood by this package (McPAT-style):
//
//	<component id="system" type="System">
//	  <param name="tech_node_nm"    value="90"/>
//	  <param name="clock_mhz"       value="1200"/>
//	  <param name="vdd"             value="1.2"/>        (optional)
//	  <param name="temperature_k"   value="360"/>        (optional)
//	  <param name="device_type"     value="HP"/>         (HP|LSTP|LOP)
//	  <param name="long_channel"    value="0"/>
//	  <param name="num_cores"       value="8"/>
//	  <param name="interconnect"    value="crossbar"/>   (none|bus|crossbar|mesh|ring)
//	  <param name="flit_bits"       value="128"/>
//	  <param name="mesh_x"          value="4"/> <param name="mesh_y" value="2"/>
//	  <param name="other_area_mm2"  value="75"/>
//	  <component id="system.core" type="Core"> ... </component>
//	  <component id="system.L2"   type="CacheUnit"> ... </component>
//	  <component id="system.L3"   type="CacheUnit"> ... </component>
//	  <component id="system.mc"   type="MemoryController"> ... </component>
//	  <component id="system.niu"  type="NIU"> ... </component>
//	  <component id="system.pcie" type="PCIe"> ... </component>
//	</component>
//
// <stat> entries on the same components carry runtime statistics (see
// ToStats). Unknown parameters are ignored; absent ones take defaults.
//
// Each component's entries are listed once, in the tables below, and
// both directions walk them. Only the root's name, the required
// tech_node_nm and clock_mhz, and the optional children are code.

// An entry is one <param> or <stat> of a component whose Go form is S,
// bound to the field it fills. The constructors below build both of
// its directions from one description: the name, the reader default,
// the unit and the writer policy.
type entry[S any] struct {
	read  func(*Component, *S)
	write func(*Component, *S)
	check func(*Component) error // nil unless a value can be invalid
}

// A table lists a component's entries in document order. Its methods
// take a nil component as an absent one.
type table[S any] []entry[S]

func (t table[S]) read(c *Component, s *S) {
	if c == nil {
		return
	}
	for _, e := range t {
		e.read(c, s)
	}
}

func (t table[S]) write(c *Component, s *S) {
	if c == nil {
		return
	}
	for _, e := range t {
		e.write(c, s)
	}
}

// check returns the error of the first invalid entry in c.
func (t table[S]) check(c *Component) error {
	if c == nil {
		return nil
	}
	for _, e := range t {
		if e.check != nil {
			if err := e.check(c); err != nil {
				return err
			}
		}
	}
	return nil
}

// A policy says whether the writer emits an entry holding v in s.
// Flags count as 0 or 1 and strings as their lengths.
type policy[S any] func(s *S, v float64) bool

func always[S any](*S, float64) bool       { return true }
func positive[S any](_ *S, v float64) bool { return v > 0 }

// nonZero writes statistics when ≠ 0 and flags only when set.
func nonZero[S any](_ *S, v float64) bool { return v != 0 }

func meshOnly(c *chip.Config, _ float64) bool { return c.NoC.Kind == chip.Mesh }

func conservative(c *chip.Config, _ float64) bool { return c.WireProjection == tech.Conservative }

// withRouters writes noc_vcs whenever the fabric has routers: the
// reader defaults an absent noc_vcs to 2, but a router reads 0 as one
// virtual channel.
func withRouters(c *chip.Config, v float64) bool {
	return v > 0 || c.NoC.Kind == chip.Mesh || c.NoC.Kind == chip.Ring
}

// A unit is the power of ten between a float field's SI value and its
// XML spelling. Reading multiplies by it. Writing divides by a positive
// power and multiplies by the inverse of a negative one, because x*1e6
// and x/1e-6 do not always format alike.
type unit int

const (
	si   unit = 0
	mhz  unit = 6   // MHz
	giga unit = 9   // GB/s and Gb/s
	mm2  unit = -6  // mm²
	pj   unit = -12 // pJ
)

func (u unit) fromXML(v float64) float64 { return v * math.Pow10(int(u)) }

func (u unit) toXML(v float64) float64 {
	if u < 0 {
		return v * math.Pow10(-int(u))
	}
	return v / math.Pow10(int(u))
}

func integer[S any](name string, def int, when policy[S], at func(*S) *int) entry[S] {
	return entry[S]{
		read: func(c *Component, s *S) { *at(s) = c.ParamInt(name, def) },
		write: func(c *Component, s *S) {
			if v := *at(s); when(s, float64(v)) {
				c.SetParam(name, strconv.Itoa(v))
			}
		},
	}
}

// float binds a float parameter spelled in unit u; def is in u too.
// A value that is not finite in SI units is invalid.
func float[S any](name string, def float64, u unit, when policy[S], at func(*S) *float64) entry[S] {
	return entry[S]{
		read: func(c *Component, s *S) { *at(s) = u.fromXML(c.ParamFloat(name, def)) },
		write: func(c *Component, s *S) {
			if v := *at(s); when(s, v) {
				c.SetParam(name, ftoa(u.toXML(v)))
			}
		},
		check: func(c *Component) error { return finite(c, name, u.fromXML(c.ParamFloat(name, def))) },
	}
}

// finite rejects v, read for the parameter name of c, if it is NaN or
// infinite.
func finite(c *Component, name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return guard.Configf(c.ID, "%s is not finite", name)
	}
	return nil
}

// flag binds a boolean parameter, spelled 1 or 0.
func flag[S any](name string, def bool, when policy[S], at func(*S) *bool) entry[S] {
	return entry[S]{
		read: func(c *Component, s *S) { *at(s) = c.ParamBool(name, def) },
		write: func(c *Component, s *S) {
			n := 0
			if *at(s) {
				n = 1
			}
			if when(s, float64(n)) {
				c.SetParam(name, strconv.Itoa(n))
			}
		},
	}
}

// text binds a string parameter that defaults to its component's id,
// the part after the last dot. The value is a copy: a parsed tree's
// strings share its document, and a name outlives the tree in the
// memoized part it labels.
func text[S any](name string, when policy[S], at func(*S) *string) entry[S] {
	return entry[S]{
		read: func(c *Component, s *S) {
			*at(s) = strings.Clone(c.ParamString(name, c.ID[strings.LastIndex(c.ID, ".")+1:]))
		},
		write: func(c *Component, s *S) {
			if v := *at(s); when(s, float64(len(v))) {
				c.SetParam(name, v)
			}
		},
	}
}

type enumeration interface {
	~int
	String() string
}

// enum binds an enumerated parameter: parse reads it, and the value's
// String method spells it.
func enum[S any, E enumeration](name, def string, parse func(string) (E, error), when policy[S], at func(*S) *E) entry[S] {
	return entry[S]{
		read: func(c *Component, s *S) { *at(s), _ = parse(c.ParamString(name, def)) },
		write: func(c *Component, s *S) {
			if v := *at(s); when(s, float64(v)) {
				c.SetParam(name, v.String())
			}
		},
		check: func(c *Component) error {
			_, err := parse(c.ParamString(name, def))
			return err
		},
	}
}

// stat binds a runtime statistic; an absent one reads as 0.
func stat[S any](name string, at func(*S) *float64) entry[S] {
	return entry[S]{
		read: func(c *Component, s *S) { *at(s) = c.StatFloat(name, 0) },
		write: func(c *Component, s *S) {
			if v := *at(s); nonZero(s, v) {
				c.SetStat(name, ftoa(v))
			}
		},
	}
}

// systemParams follows name, tech_node_nm and clock_mhz on the root.
var systemParams = table[chip.Config]{
	float("vdd", 0, si, positive, func(c *chip.Config) *float64 { return &c.Vdd }),
	float("temperature_k", 0, si, positive, func(c *chip.Config) *float64 { return &c.Temperature }),
	enum("device_type", tech.HP.String(), parseDevice, always, func(c *chip.Config) *tech.DeviceType { return &c.Dev }),
	flag("long_channel", false, always, func(c *chip.Config) *bool { return &c.LongChannel }),
	integer("num_cores", 1, always, func(c *chip.Config) *int { return &c.NumCores }),
	integer("shared_fpus", 0, positive, func(c *chip.Config) *int { return &c.SharedFPUs }),
	float("other_area_mm2", 0, mm2, positive, func(c *chip.Config) *float64 { return &c.OtherArea }),
	float("l2_peak_duty", 0, si, positive, func(c *chip.Config) *float64 { return &c.L2PeakDuty }),
	float("l3_peak_duty", 0, si, positive, func(c *chip.Config) *float64 { return &c.L3PeakDuty }),
	float("mc_peak_util", 0, si, positive, func(c *chip.Config) *float64 { return &c.MCPeakUtil }),
	float("clock_gating", 0, si, positive, func(c *chip.Config) *float64 { return &c.ClockGating }),
	float("clock_sink_mult", 0, si, positive, func(c *chip.Config) *float64 { return &c.ClockSinkMult }),
	enum("wire_projection", tech.Aggressive.String(), parseProjection, conservative,
		func(c *chip.Config) *tech.Projection { return &c.WireProjection }),
	enum("interconnect", chip.NoneIC.String(), parseInterconnect, always,
		func(c *chip.Config) *chip.InterconnectKind { return &c.NoC.Kind }),
	integer("flit_bits", 128, always, func(c *chip.Config) *int { return &c.NoC.FlitBits }),
	integer("mesh_x", 0, meshOnly, func(c *chip.Config) *int { return &c.NoC.MeshX }),
	integer("mesh_y", 0, meshOnly, func(c *chip.Config) *int { return &c.NoC.MeshY }),
	integer("noc_vcs", 2, withRouters, func(c *chip.Config) *int { return &c.NoC.VirtualChannels }),
	integer("noc_buffers_per_vc", 4, positive, func(c *chip.Config) *int { return &c.NoC.BuffersPerVC }),
}

var coreParams = table[core.Config]{
	text("name", positive, func(c *core.Config) *string { return &c.Name }),
	flag("ooo", false, always, func(c *core.Config) *bool { return &c.OoO }),
	flag("x86", false, always, func(c *core.Config) *bool { return &c.X86 }),
	integer("threads", 1, positive, func(c *core.Config) *int { return &c.Threads }),
	integer("fetch_width", 0, positive, func(c *core.Config) *int { return &c.FetchWidth }),
	integer("decode_width", 0, positive, func(c *core.Config) *int { return &c.DecodeWidth }),
	integer("issue_width", 0, positive, func(c *core.Config) *int { return &c.IssueWidth }),
	integer("commit_width", 0, positive, func(c *core.Config) *int { return &c.CommitWidth }),
	integer("pipeline_depth", 0, positive, func(c *core.Config) *int { return &c.PipelineDepth }),
	integer("rob_entries", 0, positive, func(c *core.Config) *int { return &c.ROBEntries }),
	integer("iq_entries", 0, positive, func(c *core.Config) *int { return &c.IQEntries }),
	integer("fp_iq_entries", 0, positive, func(c *core.Config) *int { return &c.FPIQEntries }),
	integer("phys_int_regs", 0, positive, func(c *core.Config) *int { return &c.PhysIntRegs }),
	integer("phys_fp_regs", 0, positive, func(c *core.Config) *int { return &c.PhysFPRegs }),
	integer("arch_int_regs", 0, positive, func(c *core.Config) *int { return &c.ArchIntRegs }),
	integer("arch_fp_regs", 0, positive, func(c *core.Config) *int { return &c.ArchFPRegs }),
	integer("btb_entries", 0, positive, func(c *core.Config) *int { return &c.BTBEntries }),
	integer("local_pred_entries", 0, positive, func(c *core.Config) *int { return &c.LocalPredEntries }),
	integer("global_pred_entries", 0, positive, func(c *core.Config) *int { return &c.GlobalPredEntries }),
	integer("chooser_entries", 0, positive, func(c *core.Config) *int { return &c.ChooserEntries }),
	integer("ras_entries", 0, positive, func(c *core.Config) *int { return &c.RASEntries }),
	integer("itlb_entries", 0, positive, func(c *core.Config) *int { return &c.ITLBEntries }),
	integer("dtlb_entries", 0, positive, func(c *core.Config) *int { return &c.DTLBEntries }),
	integer("int_alus", 0, positive, func(c *core.Config) *int { return &c.IntALUs }),
	integer("fpus", 0, positive, func(c *core.Config) *int { return &c.FPUs }),
	integer("muldivs", 0, positive, func(c *core.Config) *int { return &c.MulDivs }),
	integer("lq_entries", 0, positive, func(c *core.Config) *int { return &c.LQEntries }),
	integer("sq_entries", 0, positive, func(c *core.Config) *int { return &c.SQEntries }),
	integer("glue_gates", 0, positive, func(c *core.Config) *int { return &c.GlueGates }),
	float("glue_activity", 0, si, positive, func(c *core.Config) *float64 { return &c.GlueActivity }),
	flag("rename_cam", false, nonZero, func(c *core.Config) *bool { return &c.RenameCAM }),
	flag("power_gating", false, nonZero, func(c *core.Config) *bool { return &c.PowerGating }),
	integer("icache_bytes", 0, positive, func(c *core.Config) *int { return &c.ICache.Bytes }),
	integer("icache_block_bytes", 0, positive, func(c *core.Config) *int { return &c.ICache.BlockBytes }),
	integer("icache_assoc", 0, positive, func(c *core.Config) *int { return &c.ICache.Assoc }),
	integer("icache_banks", 0, positive, func(c *core.Config) *int { return &c.ICache.Banks }),
	integer("icache_ports", 0, positive, func(c *core.Config) *int { return &c.ICache.Ports }),
	integer("dcache_bytes", 0, positive, func(c *core.Config) *int { return &c.DCache.Bytes }),
	integer("dcache_block_bytes", 0, positive, func(c *core.Config) *int { return &c.DCache.BlockBytes }),
	integer("dcache_assoc", 0, positive, func(c *core.Config) *int { return &c.DCache.Assoc }),
	integer("dcache_banks", 0, positive, func(c *core.Config) *int { return &c.DCache.Banks }),
	integer("dcache_ports", 0, positive, func(c *core.Config) *int { return &c.DCache.Ports }),
}

var cacheParams = table[cache.Config]{
	text("name", always, func(c *cache.Config) *string { return &c.Name }),
	integer("bytes", 0, always, func(c *cache.Config) *int { return &c.Bytes }),
	integer("block_bytes", 0, positive, func(c *cache.Config) *int { return &c.BlockBytes }),
	integer("assoc", 0, positive, func(c *cache.Config) *int { return &c.Assoc }),
	integer("banks", 0, positive, func(c *cache.Config) *int { return &c.Banks }),
	integer("ports", 0, positive, func(c *cache.Config) *int { return &c.Ports }),
	integer("mshrs", 0, positive, func(c *cache.Config) *int { return &c.MSHRs }),
	integer("wb_depth", 0, positive, func(c *cache.Config) *int { return &c.WBDepth }),
	flag("directory", false, always, func(c *cache.Config) *bool { return &c.Directory }),
	integer("sharers", 0, positive, func(c *cache.Config) *int { return &c.Sharers }),
	flag("cell_hp", false, nonZero, func(c *cache.Config) *bool { return &c.CellHP }),
	flag("edram", false, nonZero, func(c *cache.Config) *bool { return &c.EDRAM }),
}

var mcParams = table[mc.Config]{
	integer("channels", 1, always, func(c *mc.Config) *int { return &c.Channels }),
	integer("data_bus_bits", 64, always, func(c *mc.Config) *int { return &c.DataBusBits }),
	float("peak_bandwidth_gbs", 0, giga, always, func(c *mc.Config) *float64 { return &c.PeakBandwidth }),
	integer("request_depth", 0, positive, func(c *mc.Config) *int { return &c.RequestDepth }),
	integer("read_depth", 0, positive, func(c *mc.Config) *int { return &c.ReadDepth }),
	integer("write_depth", 0, positive, func(c *mc.Config) *int { return &c.WriteDepth }),
	flag("lvds", true, always, func(c *mc.Config) *bool { return &c.LVDS }),
	float("phy_pj_per_bit", 0, pj, positive, func(c *mc.Config) *float64 { return &c.PHYPJPerBit }),
}

var niuParams = table[mc.NIUConfig]{
	float("bandwidth_gbps", 10, giga, always, func(c *mc.NIUConfig) *float64 { return &c.Bandwidth }),
	integer("count", 1, always, func(c *mc.NIUConfig) *int { return &c.Count }),
	float("pj_per_bit", 0, pj, positive, func(c *mc.NIUConfig) *float64 { return &c.PJPerBit }),
}

var pcieParams = table[mc.PCIeConfig]{
	integer("lanes", 8, always, func(c *mc.PCIeConfig) *int { return &c.Lanes }),
	float("gbps_per_lane", 2.5, si, always, func(c *mc.PCIeConfig) *float64 { return &c.GbpsPerLane }),
}

// Core statistics are events per cycle; the others are chip-wide
// events per second.
var coreStats = table[core.Activity]{
	stat("icache_access_per_cycle", func(a *core.Activity) *float64 { return &a.ICacheAccess }),
	stat("btb_access_per_cycle", func(a *core.Activity) *float64 { return &a.BTBAccess }),
	stat("pred_access_per_cycle", func(a *core.Activity) *float64 { return &a.PredAccess }),
	stat("decode_per_cycle", func(a *core.Activity) *float64 { return &a.Decode }),
	stat("rename_per_cycle", func(a *core.Activity) *float64 { return &a.Rename }),
	stat("iq_wakeup_per_cycle", func(a *core.Activity) *float64 { return &a.IQWakeup }),
	stat("iq_issue_per_cycle", func(a *core.Activity) *float64 { return &a.IQIssue }),
	stat("iq_write_per_cycle", func(a *core.Activity) *float64 { return &a.IQWrite }),
	stat("rob_access_per_cycle", func(a *core.Activity) *float64 { return &a.ROBAcc }),
	stat("rf_read_per_cycle", func(a *core.Activity) *float64 { return &a.RFRead }),
	stat("rf_write_per_cycle", func(a *core.Activity) *float64 { return &a.RFWrite }),
	stat("fprf_read_per_cycle", func(a *core.Activity) *float64 { return &a.FPRFRead }),
	stat("fprf_write_per_cycle", func(a *core.Activity) *float64 { return &a.FPRFWrite }),
	stat("int_ops_per_cycle", func(a *core.Activity) *float64 { return &a.IntOp }),
	stat("mul_ops_per_cycle", func(a *core.Activity) *float64 { return &a.MulOp }),
	stat("fp_ops_per_cycle", func(a *core.Activity) *float64 { return &a.FPOp }),
	stat("bypass_per_cycle", func(a *core.Activity) *float64 { return &a.Bypass }),
	stat("dcache_read_per_cycle", func(a *core.Activity) *float64 { return &a.DCacheRead }),
	stat("dcache_write_per_cycle", func(a *core.Activity) *float64 { return &a.DCacheWrite }),
	stat("cache_miss_per_cycle", func(a *core.Activity) *float64 { return &a.CacheMiss }),
	stat("lsq_search_per_cycle", func(a *core.Activity) *float64 { return &a.LSQSearch }),
	stat("lsq_access_per_cycle", func(a *core.Activity) *float64 { return &a.LSQAccess }),
	stat("itlb_access_per_cycle", func(a *core.Activity) *float64 { return &a.ITLBAccess }),
	stat("dtlb_access_per_cycle", func(a *core.Activity) *float64 { return &a.DTLBAccess }),
	stat("pipeline_duty", func(a *core.Activity) *float64 { return &a.PipelineDuty }),
}

var systemStats = table[chip.Stats]{
	stat("noc_flits_per_sec", func(s *chip.Stats) *float64 { return &s.NoCFlits }),
	stat("shared_fp_ops_per_sec", func(s *chip.Stats) *float64 { return &s.FPOpsPerSec }),
}

// traffic is one shared cache level's part of chip.Stats.
type traffic struct{ reads, writes *float64 }

var cacheStats = table[traffic]{
	stat("reads_per_sec", func(t *traffic) *float64 { return t.reads }),
	stat("writes_per_sec", func(t *traffic) *float64 { return t.writes }),
}

// The memory controller's and the I/O links' tables bind a single
// chip.Stats field.
var (
	mcStats   = table[float64]{stat("accesses_per_sec", same)}
	linkStats = table[float64]{stat("bits_per_sec", same)}
)

func same(v *float64) *float64 { return v }

// ToChipConfig converts a parsed XML tree into a chip configuration.
func ToChipConfig(root *Component) (chip.Config, error) {
	var cfg chip.Config
	if root == nil {
		return cfg, guard.Configf("config", "nil root")
	}
	cfg.Name = strings.Clone(root.ParamString("name", root.ID))
	if cfg.NM = root.ParamFloat("tech_node_nm", 0); cfg.NM == 0 {
		return cfg, guard.Configf("config", "tech_node_nm is required")
	}
	if cfg.ClockHz = mhz.fromXML(root.ParamFloat("clock_mhz", 0)); cfg.ClockHz == 0 {
		return cfg, guard.Configf("config", "clock_mhz is required")
	}
	if err := cmp.Or(
		finite(root, "tech_node_nm", cfg.NM),
		finite(root, "clock_mhz", cfg.ClockHz),
		systemParams.check(root),
		coreParams.check(root.Child("core")),
		cacheParams.check(root.Child("L2")),
		cacheParams.check(root.Child("L3")),
		mcParams.check(root.Child("mc")),
		niuParams.check(root.Child("niu")),
		pcieParams.check(root.Child("pcie")),
	); err != nil {
		return cfg, err
	}
	systemParams.read(root, &cfg)
	coreParams.read(root.Child("core"), &cfg.Core)
	cfg.L2 = readChild(root, "L2", cacheParams)
	cfg.L3 = readChild(root, "L3", cacheParams)
	cfg.MC = readChild(root, "mc", mcParams)
	cfg.NIU = readChild(root, "niu", niuParams)
	cfg.PCIe = readChild(root, "pcie", pcieParams)
	return cfg, nil
}

// readChild reads the child id through t, or returns nil when the
// document has no such child.
func readChild[S any](root *Component, id string, t table[S]) *S {
	c := root.Child(id)
	if c == nil {
		return nil
	}
	s := new(S)
	t.read(c, s)
	return s
}

func parseDevice(s string) (tech.DeviceType, error) {
	switch s {
	case "HP", "hp":
		return tech.HP, nil
	case "LSTP", "lstp":
		return tech.LSTP, nil
	case "LOP", "lop":
		return tech.LOP, nil
	}
	return tech.HP, guard.Configf("config", "unknown device_type %q", s)
}

func parseInterconnect(s string) (chip.InterconnectKind, error) {
	k, err := chip.ParseInterconnect(s)
	if err != nil {
		return k, guard.Configf("config", "unknown interconnect %q", s)
	}
	return k, nil
}

// parseProjection reads every spelling but "conservative" as the
// default, aggressive, projection.
func parseProjection(s string) (tech.Projection, error) {
	if s == tech.Conservative.String() {
		return tech.Conservative, nil
	}
	return tech.Aggressive, nil
}

// ToStats extracts runtime statistics from the XML tree. All statistics
// are optional; absent ones default to zero. Core statistics are given in
// events per cycle, chip-level traffic in events per second.
func ToStats(root *Component) *chip.Stats {
	s := &chip.Stats{}
	if root == nil {
		return s
	}
	coreStats.read(root.Child("core"), &s.CoreRun)
	cacheStats.read(root.Child("L2"), &traffic{&s.L2Reads, &s.L2Writes})
	cacheStats.read(root.Child("L3"), &traffic{&s.L3Reads, &s.L3Writes})
	systemStats.read(root, s)
	mcStats.read(root.Child("mc"), &s.MCAccesses)
	linkStats.read(root.Child("niu"), &s.NIUBitsPerSec)
	linkStats.read(root.Child("pcie"), &s.PCIeBitsPerSec)
	return s
}

// FromChipConfig builds the XML tree describing cfg, suitable for
// Write. It inverts ToChipConfig: every field ToChipConfig reads comes
// back equal, up to the unit scaling of float parameters. Fields with
// no XML parameter, such as CorePeak, NoC.ClusterSize and a cache's
// TargetHz, are not carried; only the native JSON form carries them.
func FromChipConfig(cfg chip.Config) *Component {
	root := &Component{ID: "system", Type: "System"}
	root.SetParam("name", cfg.Name)
	root.SetParam("tech_node_nm", ftoa(cfg.NM))
	root.SetParam("clock_mhz", ftoa(mhz.toXML(cfg.ClockHz)))
	systemParams.write(root, &cfg)
	writeChild(root, "core", "Core", &cfg.Core, coreParams)
	writeChild(root, "L2", "CacheUnit", cfg.L2, cacheParams)
	writeChild(root, "L3", "CacheUnit", cfg.L3, cacheParams)
	writeChild(root, "mc", "MemoryController", cfg.MC, mcParams)
	writeChild(root, "niu", "NIU", cfg.NIU, niuParams)
	writeChild(root, "pcie", "PCIe", cfg.PCIe, pcieParams)
	return root
}

// writeChild appends the child id describing s, unless s is nil.
func writeChild[S any](root *Component, id, typ string, s *S, t table[S]) {
	if s == nil {
		return
	}
	c := &Component{ID: "system." + id, Type: typ}
	t.write(c, s)
	root.Children = append(root.Children, c)
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// FromStats attaches runtime statistics to an existing configuration tree
// as <stat> entries, inverting ToStats: a performance simulator can build
// the combined configuration+statistics document this way, the workflow
// the original tool's scripts implement.
func FromStats(root *Component, s *chip.Stats) {
	if root == nil || s == nil {
		return
	}
	coreStats.write(root.Child("core"), &s.CoreRun)
	cacheStats.write(root.Child("L2"), &traffic{&s.L2Reads, &s.L2Writes})
	cacheStats.write(root.Child("L3"), &traffic{&s.L3Reads, &s.L3Writes})
	systemStats.write(root, s)
	mcStats.write(root.Child("mc"), &s.MCAccesses)
	linkStats.write(root.Child("niu"), &s.NIUBitsPerSec)
	linkStats.write(root.Child("pcie"), &s.PCIeBitsPerSec)
}
