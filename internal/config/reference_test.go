package config

import (
	"math"
	"strconv"

	"mcpat/internal/cache"
	"mcpat/internal/chip"
	"mcpat/internal/core"
	"mcpat/internal/guard"
	"mcpat/internal/mc"
	"mcpat/internal/tech"
)

// This file keeps the hand-written mappings as a test-only oracle: the
// four functions the schema tables replaced, with the noc_vcs writer
// fix and the rejection of non-finite params applied.
// FuzzMappingMatchesReference holds the table walks to them: the same
// errors, configs and statistics, and the same bytes.

// refToChipConfig converts a parsed XML tree into a chip configuration.
func refToChipConfig(root *Component) (chip.Config, error) {
	var cfg chip.Config
	if root == nil {
		return cfg, guard.Configf("config", "nil root")
	}
	cfg.Name = root.ParamString("name", root.ID)
	cfg.NM = root.ParamFloat("tech_node_nm", 0)
	if cfg.NM == 0 {
		return cfg, guard.Configf("config", "tech_node_nm is required")
	}
	cfg.ClockHz = root.ParamFloat("clock_mhz", 0) * 1e6
	if cfg.ClockHz == 0 {
		return cfg, guard.Configf("config", "clock_mhz is required")
	}
	cfg.Vdd = root.ParamFloat("vdd", 0)
	cfg.Temperature = root.ParamFloat("temperature_k", 0)
	if err := refFinite(root, []refValue{{"tech_node_nm", cfg.NM}, {"clock_mhz", cfg.ClockHz},
		{"vdd", cfg.Vdd}, {"temperature_k", cfg.Temperature}}...); err != nil {
		return cfg, err
	}
	dev, err := parseDevice(root.ParamString("device_type", "HP"))
	if err != nil {
		return cfg, err
	}
	cfg.Dev = dev
	cfg.LongChannel = root.ParamBool("long_channel", false)
	if root.ParamString("wire_projection", "aggressive") == "conservative" {
		cfg.WireProjection = tech.Conservative
	}
	cfg.NumCores = root.ParamInt("num_cores", 1)
	cfg.SharedFPUs = root.ParamInt("shared_fpus", 0)
	cfg.L2PeakDuty = root.ParamFloat("l2_peak_duty", 0)
	cfg.L3PeakDuty = root.ParamFloat("l3_peak_duty", 0)
	cfg.MCPeakUtil = root.ParamFloat("mc_peak_util", 0)
	cfg.ClockGating = root.ParamFloat("clock_gating", 0)
	cfg.ClockSinkMult = root.ParamFloat("clock_sink_mult", 0)
	cfg.OtherArea = root.ParamFloat("other_area_mm2", 0) * 1e-6
	if err := refFinite(root, []refValue{{"other_area_mm2", cfg.OtherArea},
		{"l2_peak_duty", cfg.L2PeakDuty}, {"l3_peak_duty", cfg.L3PeakDuty},
		{"mc_peak_util", cfg.MCPeakUtil}, {"clock_gating", cfg.ClockGating},
		{"clock_sink_mult", cfg.ClockSinkMult}}...); err != nil {
		return cfg, err
	}

	ic := root.ParamString("interconnect", "none")
	if cfg.NoC.Kind, err = chip.ParseInterconnect(ic); err != nil {
		return cfg, guard.Configf("config", "unknown interconnect %q", ic)
	}
	cfg.NoC.FlitBits = root.ParamInt("flit_bits", 128)
	cfg.NoC.MeshX = root.ParamInt("mesh_x", 0)
	cfg.NoC.MeshY = root.ParamInt("mesh_y", 0)
	cfg.NoC.VirtualChannels = root.ParamInt("noc_vcs", 2)
	cfg.NoC.BuffersPerVC = root.ParamInt("noc_buffers_per_vc", 4)

	if c := root.Child("core"); c != nil {
		cfg.Core = refToCoreConfig(c)
		if err := refFinite(c, refValue{"glue_activity", cfg.Core.GlueActivity}); err != nil {
			return cfg, err
		}
	}
	if c := root.Child("L2"); c != nil {
		l2 := refToCacheConfig(c, "L2")
		cfg.L2 = &l2
	}
	if c := root.Child("L3"); c != nil {
		l3 := refToCacheConfig(c, "L3")
		cfg.L3 = &l3
	}
	if c := root.Child("mc"); c != nil {
		m := refToMCConfig(c)
		cfg.MC = &m
		if err := refFinite(c, []refValue{{"peak_bandwidth_gbs", m.PeakBandwidth},
			{"phy_pj_per_bit", m.PHYPJPerBit}}...); err != nil {
			return cfg, err
		}
	}
	if c := root.Child("niu"); c != nil {
		cfg.NIU = &mc.NIUConfig{
			Bandwidth: c.ParamFloat("bandwidth_gbps", 10) * 1e9,
			Count:     c.ParamInt("count", 1),
			PJPerBit:  c.ParamFloat("pj_per_bit", 0) * 1e-12,
		}
		if err := refFinite(c, []refValue{{"bandwidth_gbps", cfg.NIU.Bandwidth},
			{"pj_per_bit", cfg.NIU.PJPerBit}}...); err != nil {
			return cfg, err
		}
	}
	if c := root.Child("pcie"); c != nil {
		cfg.PCIe = &mc.PCIeConfig{
			Lanes:       c.ParamInt("lanes", 8),
			GbpsPerLane: c.ParamFloat("gbps_per_lane", 2.5),
		}
		if err := refFinite(c, refValue{"gbps_per_lane", cfg.PCIe.GbpsPerLane}); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// refValue is a parameter's name and the value read for it.
type refValue struct {
	name string
	v    float64
}

// refFinite returns a config error at c for the first value that is
// NaN or infinite.
func refFinite(c *Component, vals ...refValue) error {
	for _, x := range vals {
		if math.IsNaN(x.v) || math.IsInf(x.v, 0) {
			return guard.Configf(c.ID, "%s is not finite", x.name)
		}
	}
	return nil
}

func refToCoreConfig(c *Component) core.Config {
	cc := core.Config{
		Name:              c.ParamString("name", "core"),
		OoO:               c.ParamBool("ooo", false),
		X86:               c.ParamBool("x86", false),
		Threads:           c.ParamInt("threads", 1),
		FetchWidth:        c.ParamInt("fetch_width", 0),
		DecodeWidth:       c.ParamInt("decode_width", 0),
		IssueWidth:        c.ParamInt("issue_width", 0),
		CommitWidth:       c.ParamInt("commit_width", 0),
		PipelineDepth:     c.ParamInt("pipeline_depth", 0),
		ROBEntries:        c.ParamInt("rob_entries", 0),
		IQEntries:         c.ParamInt("iq_entries", 0),
		FPIQEntries:       c.ParamInt("fp_iq_entries", 0),
		PhysIntRegs:       c.ParamInt("phys_int_regs", 0),
		PhysFPRegs:        c.ParamInt("phys_fp_regs", 0),
		ArchIntRegs:       c.ParamInt("arch_int_regs", 0),
		ArchFPRegs:        c.ParamInt("arch_fp_regs", 0),
		BTBEntries:        c.ParamInt("btb_entries", 0),
		LocalPredEntries:  c.ParamInt("local_pred_entries", 0),
		GlobalPredEntries: c.ParamInt("global_pred_entries", 0),
		ChooserEntries:    c.ParamInt("chooser_entries", 0),
		RASEntries:        c.ParamInt("ras_entries", 0),
		ITLBEntries:       c.ParamInt("itlb_entries", 0),
		DTLBEntries:       c.ParamInt("dtlb_entries", 0),
		IntALUs:           c.ParamInt("int_alus", 0),
		FPUs:              c.ParamInt("fpus", 0),
		MulDivs:           c.ParamInt("muldivs", 0),
		LQEntries:         c.ParamInt("lq_entries", 0),
		SQEntries:         c.ParamInt("sq_entries", 0),
		GlueGates:         c.ParamInt("glue_gates", 0),
		GlueActivity:      c.ParamFloat("glue_activity", 0),
		RenameCAM:         c.ParamBool("rename_cam", false),
		PowerGating:       c.ParamBool("power_gating", false),
	}
	cc.ICache = core.CacheParams{
		Bytes:      c.ParamInt("icache_bytes", 0),
		BlockBytes: c.ParamInt("icache_block_bytes", 0),
		Assoc:      c.ParamInt("icache_assoc", 0),
		Banks:      c.ParamInt("icache_banks", 0),
		Ports:      c.ParamInt("icache_ports", 0),
	}
	cc.DCache = core.CacheParams{
		Bytes:      c.ParamInt("dcache_bytes", 0),
		BlockBytes: c.ParamInt("dcache_block_bytes", 0),
		Assoc:      c.ParamInt("dcache_assoc", 0),
		Banks:      c.ParamInt("dcache_banks", 0),
		Ports:      c.ParamInt("dcache_ports", 0),
	}
	return cc
}

func refToCacheConfig(c *Component, name string) cache.Config {
	return cache.Config{
		Name:       c.ParamString("name", name),
		Bytes:      c.ParamInt("bytes", 0),
		BlockBytes: c.ParamInt("block_bytes", 0),
		Assoc:      c.ParamInt("assoc", 0),
		Banks:      c.ParamInt("banks", 0),
		Ports:      c.ParamInt("ports", 0),
		MSHRs:      c.ParamInt("mshrs", 0),
		WBDepth:    c.ParamInt("wb_depth", 0),
		Directory:  c.ParamBool("directory", false),
		Sharers:    c.ParamInt("sharers", 0),
		CellHP:     c.ParamBool("cell_hp", false),
		EDRAM:      c.ParamBool("edram", false),
	}
}

func refToMCConfig(c *Component) mc.Config {
	return mc.Config{
		Channels:      c.ParamInt("channels", 1),
		DataBusBits:   c.ParamInt("data_bus_bits", 64),
		PeakBandwidth: c.ParamFloat("peak_bandwidth_gbs", 0) * 1e9,
		RequestDepth:  c.ParamInt("request_depth", 0),
		ReadDepth:     c.ParamInt("read_depth", 0),
		WriteDepth:    c.ParamInt("write_depth", 0),
		LVDS:          c.ParamBool("lvds", true),
		PHYPJPerBit:   c.ParamFloat("phy_pj_per_bit", 0) * 1e-12,
	}
}

// refToStats extracts runtime statistics from the XML tree. All statistics
// are optional; absent ones default to zero. Core statistics are given in
// events per cycle, chip-level traffic in events per second.
func refToStats(root *Component) *chip.Stats {
	s := &chip.Stats{}
	if root == nil {
		return s
	}
	if c := root.Child("core"); c != nil {
		s.CoreRun = core.Activity{
			ICacheAccess: c.StatFloat("icache_access_per_cycle", 0),
			BTBAccess:    c.StatFloat("btb_access_per_cycle", 0),
			PredAccess:   c.StatFloat("pred_access_per_cycle", 0),
			Decode:       c.StatFloat("decode_per_cycle", 0),
			Rename:       c.StatFloat("rename_per_cycle", 0),
			IQWakeup:     c.StatFloat("iq_wakeup_per_cycle", 0),
			IQIssue:      c.StatFloat("iq_issue_per_cycle", 0),
			IQWrite:      c.StatFloat("iq_write_per_cycle", 0),
			ROBAcc:       c.StatFloat("rob_access_per_cycle", 0),
			RFRead:       c.StatFloat("rf_read_per_cycle", 0),
			RFWrite:      c.StatFloat("rf_write_per_cycle", 0),
			FPRFRead:     c.StatFloat("fprf_read_per_cycle", 0),
			FPRFWrite:    c.StatFloat("fprf_write_per_cycle", 0),
			IntOp:        c.StatFloat("int_ops_per_cycle", 0),
			MulOp:        c.StatFloat("mul_ops_per_cycle", 0),
			FPOp:         c.StatFloat("fp_ops_per_cycle", 0),
			Bypass:       c.StatFloat("bypass_per_cycle", 0),
			DCacheRead:   c.StatFloat("dcache_read_per_cycle", 0),
			DCacheWrite:  c.StatFloat("dcache_write_per_cycle", 0),
			CacheMiss:    c.StatFloat("cache_miss_per_cycle", 0),
			LSQSearch:    c.StatFloat("lsq_search_per_cycle", 0),
			LSQAccess:    c.StatFloat("lsq_access_per_cycle", 0),
			ITLBAccess:   c.StatFloat("itlb_access_per_cycle", 0),
			DTLBAccess:   c.StatFloat("dtlb_access_per_cycle", 0),
			PipelineDuty: c.StatFloat("pipeline_duty", 0),
		}
	}
	if c := root.Child("L2"); c != nil {
		s.L2Reads = c.StatFloat("reads_per_sec", 0)
		s.L2Writes = c.StatFloat("writes_per_sec", 0)
	}
	if c := root.Child("L3"); c != nil {
		s.L3Reads = c.StatFloat("reads_per_sec", 0)
		s.L3Writes = c.StatFloat("writes_per_sec", 0)
	}
	s.NoCFlits = root.StatFloat("noc_flits_per_sec", 0)
	if c := root.Child("mc"); c != nil {
		s.MCAccesses = c.StatFloat("accesses_per_sec", 0)
	}
	if c := root.Child("niu"); c != nil {
		s.NIUBitsPerSec = c.StatFloat("bits_per_sec", 0)
	}
	if c := root.Child("pcie"); c != nil {
		s.PCIeBitsPerSec = c.StatFloat("bits_per_sec", 0)
	}
	s.FPOpsPerSec = root.StatFloat("shared_fp_ops_per_sec", 0)
	return s
}

// refFromChipConfig builds the XML tree describing cfg, suitable for
// Write. It inverts refToChipConfig: every field refToChipConfig reads comes
// back equal, up to the unit scaling of float parameters. Fields with
// no XML parameter, such as CorePeak, NoC.ClusterSize and a cache's
// TargetHz, are not carried; only the native JSON form carries them.
func refFromChipConfig(cfg chip.Config) *Component {
	root := &Component{ID: "system", Type: "System"}
	root.SetParam("name", cfg.Name)
	root.SetParam("tech_node_nm", ftoa(cfg.NM))
	root.SetParam("clock_mhz", ftoa(cfg.ClockHz/1e6))
	if cfg.Vdd > 0 {
		root.SetParam("vdd", ftoa(cfg.Vdd))
	}
	if cfg.Temperature > 0 {
		root.SetParam("temperature_k", ftoa(cfg.Temperature))
	}
	root.SetParam("device_type", cfg.Dev.String())
	root.SetParam("long_channel", boolStr(cfg.LongChannel))
	root.SetParam("num_cores", itoa(cfg.NumCores))
	if cfg.SharedFPUs > 0 {
		root.SetParam("shared_fpus", itoa(cfg.SharedFPUs))
	}
	if cfg.OtherArea > 0 {
		root.SetParam("other_area_mm2", ftoa(cfg.OtherArea*1e6))
	}
	if cfg.L2PeakDuty > 0 {
		root.SetParam("l2_peak_duty", ftoa(cfg.L2PeakDuty))
	}
	if cfg.L3PeakDuty > 0 {
		root.SetParam("l3_peak_duty", ftoa(cfg.L3PeakDuty))
	}
	if cfg.MCPeakUtil > 0 {
		root.SetParam("mc_peak_util", ftoa(cfg.MCPeakUtil))
	}
	if cfg.ClockGating > 0 {
		root.SetParam("clock_gating", ftoa(cfg.ClockGating))
	}
	if cfg.ClockSinkMult > 0 {
		root.SetParam("clock_sink_mult", ftoa(cfg.ClockSinkMult))
	}
	if cfg.WireProjection == tech.Conservative {
		root.SetParam("wire_projection", "conservative")
	}
	root.SetParam("interconnect", cfg.NoC.Kind.String())
	root.SetParam("flit_bits", itoa(cfg.NoC.FlitBits))
	if cfg.NoC.Kind == chip.Mesh {
		root.SetParam("mesh_x", itoa(cfg.NoC.MeshX))
		root.SetParam("mesh_y", itoa(cfg.NoC.MeshY))
	}
	// Routers read an absent noc_vcs as 2 but a zero as 1, so a fabric
	// with routers always carries it.
	if cfg.NoC.VirtualChannels > 0 || cfg.NoC.Kind == chip.Mesh || cfg.NoC.Kind == chip.Ring {
		root.SetParam("noc_vcs", itoa(cfg.NoC.VirtualChannels))
	}
	if cfg.NoC.BuffersPerVC > 0 {
		root.SetParam("noc_buffers_per_vc", itoa(cfg.NoC.BuffersPerVC))
	}

	root.Children = append(root.Children, refFromCoreConfig(cfg.Core))
	if cfg.L2 != nil {
		root.Children = append(root.Children, refFromCacheConfig(*cfg.L2, "system.L2"))
	}
	if cfg.L3 != nil {
		root.Children = append(root.Children, refFromCacheConfig(*cfg.L3, "system.L3"))
	}
	if cfg.MC != nil {
		m := &Component{ID: "system.mc", Type: "MemoryController"}
		m.SetParam("channels", itoa(cfg.MC.Channels))
		m.SetParam("data_bus_bits", itoa(cfg.MC.DataBusBits))
		m.SetParam("peak_bandwidth_gbs", ftoa(cfg.MC.PeakBandwidth/1e9))
		if cfg.MC.RequestDepth > 0 {
			m.SetParam("request_depth", itoa(cfg.MC.RequestDepth))
		}
		if cfg.MC.ReadDepth > 0 {
			m.SetParam("read_depth", itoa(cfg.MC.ReadDepth))
		}
		if cfg.MC.WriteDepth > 0 {
			m.SetParam("write_depth", itoa(cfg.MC.WriteDepth))
		}
		m.SetParam("lvds", boolStr(cfg.MC.LVDS))
		if cfg.MC.PHYPJPerBit > 0 {
			m.SetParam("phy_pj_per_bit", ftoa(cfg.MC.PHYPJPerBit*1e12))
		}
		root.Children = append(root.Children, m)
	}
	if cfg.NIU != nil {
		n := &Component{ID: "system.niu", Type: "NIU"}
		n.SetParam("bandwidth_gbps", ftoa(cfg.NIU.Bandwidth/1e9))
		n.SetParam("count", itoa(cfg.NIU.Count))
		if cfg.NIU.PJPerBit > 0 {
			n.SetParam("pj_per_bit", ftoa(cfg.NIU.PJPerBit*1e12))
		}
		root.Children = append(root.Children, n)
	}
	if cfg.PCIe != nil {
		n := &Component{ID: "system.pcie", Type: "PCIe"}
		n.SetParam("lanes", itoa(cfg.PCIe.Lanes))
		n.SetParam("gbps_per_lane", ftoa(cfg.PCIe.GbpsPerLane))
		root.Children = append(root.Children, n)
	}
	return root
}

func refFromCoreConfig(cc core.Config) *Component {
	c := &Component{ID: "system.core", Type: "Core"}
	set := func(name string, v int) {
		if v > 0 {
			c.SetParam(name, itoa(v))
		}
	}
	if cc.Name != "" {
		c.SetParam("name", cc.Name)
	}
	c.SetParam("ooo", boolStr(cc.OoO))
	c.SetParam("x86", boolStr(cc.X86))
	set("threads", cc.Threads)
	set("fetch_width", cc.FetchWidth)
	set("decode_width", cc.DecodeWidth)
	set("issue_width", cc.IssueWidth)
	set("commit_width", cc.CommitWidth)
	set("pipeline_depth", cc.PipelineDepth)
	set("rob_entries", cc.ROBEntries)
	set("iq_entries", cc.IQEntries)
	set("fp_iq_entries", cc.FPIQEntries)
	set("phys_int_regs", cc.PhysIntRegs)
	set("phys_fp_regs", cc.PhysFPRegs)
	set("arch_int_regs", cc.ArchIntRegs)
	set("arch_fp_regs", cc.ArchFPRegs)
	set("btb_entries", cc.BTBEntries)
	set("local_pred_entries", cc.LocalPredEntries)
	set("global_pred_entries", cc.GlobalPredEntries)
	set("chooser_entries", cc.ChooserEntries)
	set("ras_entries", cc.RASEntries)
	set("itlb_entries", cc.ITLBEntries)
	set("dtlb_entries", cc.DTLBEntries)
	set("int_alus", cc.IntALUs)
	set("fpus", cc.FPUs)
	set("muldivs", cc.MulDivs)
	set("lq_entries", cc.LQEntries)
	set("sq_entries", cc.SQEntries)
	set("glue_gates", cc.GlueGates)
	if cc.GlueActivity > 0 {
		c.SetParam("glue_activity", ftoa(cc.GlueActivity))
	}
	if cc.RenameCAM {
		c.SetParam("rename_cam", "1")
	}
	if cc.PowerGating {
		c.SetParam("power_gating", "1")
	}
	set("icache_bytes", cc.ICache.Bytes)
	set("icache_block_bytes", cc.ICache.BlockBytes)
	set("icache_assoc", cc.ICache.Assoc)
	set("icache_banks", cc.ICache.Banks)
	set("icache_ports", cc.ICache.Ports)
	set("dcache_bytes", cc.DCache.Bytes)
	set("dcache_block_bytes", cc.DCache.BlockBytes)
	set("dcache_assoc", cc.DCache.Assoc)
	set("dcache_banks", cc.DCache.Banks)
	set("dcache_ports", cc.DCache.Ports)
	return c
}

func refFromCacheConfig(cc cache.Config, id string) *Component {
	c := &Component{ID: id, Type: "CacheUnit"}
	c.SetParam("name", cc.Name)
	c.SetParam("bytes", itoa(cc.Bytes))
	if cc.BlockBytes > 0 {
		c.SetParam("block_bytes", itoa(cc.BlockBytes))
	}
	if cc.Assoc > 0 {
		c.SetParam("assoc", itoa(cc.Assoc))
	}
	if cc.Banks > 0 {
		c.SetParam("banks", itoa(cc.Banks))
	}
	if cc.Ports > 0 {
		c.SetParam("ports", itoa(cc.Ports))
	}
	if cc.MSHRs > 0 {
		c.SetParam("mshrs", itoa(cc.MSHRs))
	}
	if cc.WBDepth > 0 {
		c.SetParam("wb_depth", itoa(cc.WBDepth))
	}
	c.SetParam("directory", boolStr(cc.Directory))
	if cc.Sharers > 0 {
		c.SetParam("sharers", itoa(cc.Sharers))
	}
	if cc.CellHP {
		c.SetParam("cell_hp", "1")
	}
	if cc.EDRAM {
		c.SetParam("edram", "1")
	}
	return c
}

// refFromStats attaches runtime statistics to an existing configuration tree
// as <stat> entries, inverting refToStats: a performance simulator can build
// the combined configuration+statistics document this way, the workflow
// the original tool's scripts implement.
func refFromStats(root *Component, s *chip.Stats) {
	if root == nil || s == nil {
		return
	}
	setStat := func(child *Component, name string, v float64) {
		if v != 0 {
			child.SetStat(name, ftoa(v))
		}
	}
	if c := root.Child("core"); c != nil {
		a := s.CoreRun
		setStat(c, "icache_access_per_cycle", a.ICacheAccess)
		setStat(c, "btb_access_per_cycle", a.BTBAccess)
		setStat(c, "pred_access_per_cycle", a.PredAccess)
		setStat(c, "decode_per_cycle", a.Decode)
		setStat(c, "rename_per_cycle", a.Rename)
		setStat(c, "iq_wakeup_per_cycle", a.IQWakeup)
		setStat(c, "iq_issue_per_cycle", a.IQIssue)
		setStat(c, "iq_write_per_cycle", a.IQWrite)
		setStat(c, "rob_access_per_cycle", a.ROBAcc)
		setStat(c, "rf_read_per_cycle", a.RFRead)
		setStat(c, "rf_write_per_cycle", a.RFWrite)
		setStat(c, "fprf_read_per_cycle", a.FPRFRead)
		setStat(c, "fprf_write_per_cycle", a.FPRFWrite)
		setStat(c, "int_ops_per_cycle", a.IntOp)
		setStat(c, "mul_ops_per_cycle", a.MulOp)
		setStat(c, "fp_ops_per_cycle", a.FPOp)
		setStat(c, "bypass_per_cycle", a.Bypass)
		setStat(c, "dcache_read_per_cycle", a.DCacheRead)
		setStat(c, "dcache_write_per_cycle", a.DCacheWrite)
		setStat(c, "cache_miss_per_cycle", a.CacheMiss)
		setStat(c, "lsq_search_per_cycle", a.LSQSearch)
		setStat(c, "lsq_access_per_cycle", a.LSQAccess)
		setStat(c, "itlb_access_per_cycle", a.ITLBAccess)
		setStat(c, "dtlb_access_per_cycle", a.DTLBAccess)
		setStat(c, "pipeline_duty", a.PipelineDuty)
	}
	if c := root.Child("L2"); c != nil {
		setStat(c, "reads_per_sec", s.L2Reads)
		setStat(c, "writes_per_sec", s.L2Writes)
	}
	if c := root.Child("L3"); c != nil {
		setStat(c, "reads_per_sec", s.L3Reads)
		setStat(c, "writes_per_sec", s.L3Writes)
	}
	if s.NoCFlits != 0 {
		root.SetStat("noc_flits_per_sec", ftoa(s.NoCFlits))
	}
	if c := root.Child("mc"); c != nil {
		setStat(c, "accesses_per_sec", s.MCAccesses)
	}
	if c := root.Child("niu"); c != nil {
		setStat(c, "bits_per_sec", s.NIUBitsPerSec)
	}
	if c := root.Child("pcie"); c != nil {
		setStat(c, "bits_per_sec", s.PCIeBitsPerSec)
	}
	if s.FPOpsPerSec != 0 {
		root.SetStat("shared_fp_ops_per_sec", ftoa(s.FPOpsPerSec))
	}
}

func itoa(i int) string { return strconv.Itoa(i) }

func boolStr(b bool) string {
	if b {
		return "1"
	}
	return "0"
}
