package chip

import (
	"errors"
	"fmt"
	"math"

	"mcpat/internal/cache"
	"mcpat/internal/clock"
	"mcpat/internal/core"
	"mcpat/internal/guard"
	"mcpat/internal/interconnect"
	"mcpat/internal/logic"
	"mcpat/internal/mc"
	"mcpat/internal/power"
	"mcpat/internal/tech"
)

// Chip assembly as a registry fold.
//
// New walks the subsystems table in order: every builder synthesizes its
// subsystem through the memoized component layer (core.Synthesize,
// cache.Synthesize, ...) and registers a part at a fixed report
// position. A part is the one closure that scores its subsystem: it
// turns the chip-level Stats into the subsystem's peak and runtime
// activity and builds its report subtree from the synthesized models it
// captured. Build order and report order differ (the fabric and clock
// size themselves from the area accumulated by everything built before
// them, but report before the off-chip interfaces), which is why parts
// carry positions instead of relying on build sequence. The table order
// is also the floating-point accumulation order of the component area,
// so it fixes every downstream number.
//
// Chips are assembled serially: sweeps, shards and concurrent requests
// already evaluate many chips at once, so parallelism comes from the
// design points, not from inside one build.

// Report positions. The order fixes the chip report's child sequence
// and therefore the floating-point accumulation order of the rollup —
// bit-identical to the pre-registry assembly.
const (
	posCores = iota
	posL2
	posL3
	posFPU
	posFabric
	posMC
	posNIU
	posPCIe
	posClock
	posOther
	numPos
)

// part scores one subsystem: it maps the chip-level runtime statistics
// to the subsystem's report subtree, drawing every Item from ar (nil =
// heap). A part reads the synthesized models it captured and never
// mutates them, so one memoized model can back any number of chips
// concurrently. Where a model's report roots itself in the Name it was
// first synthesized under, the part renames the root to this chip's
// name (child names are constants, so only the root needs renaming).
type part func(ar *power.Arena, s *Stats) *power.Item

// subsystems is the assembly registry, in build order. Adding a
// subsystem to the chip means adding a row here (and a position above),
// not editing New. Builders return their component-area contribution.
// The fabric reads the area of the rows above it and folds its router,
// link, and cluster-bus areas into builder.base as separate terms,
// returning 0; the clock network reads the area including the fabric.
var subsystems = []struct {
	name  string
	build func(*builder) (float64, error)
}{
	{"cores", buildCores},
	{"l2", buildL2},
	{"l3", buildL3},
	{"fpu", buildFPU},
	{"mc", buildMC},
	{"niu", buildNIU},
	{"pcie", buildPCIe},
	{"fabric", buildFabric},
	{"clock", buildClock},
	{"other", buildOther},
}

// builder is the transient assembly state threaded through the registry.
type builder struct {
	p    *Processor
	node *tech.Node
	path string  // guard path prefix for error attribution
	base float64 // accumulated component area (m^2), pre-overhead
	part [numPos]part
}

// finish compacts the registered parts into report order, sized exactly
// so the report's child fold never regrows the slice.
func (b *builder) finish() {
	n := 0
	for _, pt := range b.part {
		if pt != nil {
			n++
		}
	}
	parts := make([]part, 0, n)
	for _, pt := range b.part {
		if pt != nil {
			parts = append(parts, pt)
		}
	}
	b.p.parts = parts
}

// assemble walks the registry in order and stops at the first builder
// that fails, so that builder's error is the one New returns.
func assemble(b *builder) error {
	for _, sub := range subsystems {
		area, err := sub.build(b)
		if err != nil {
			return err
		}
		b.base += area
	}
	return nil
}

// Shared-cache TDP traffic mix: at saturation, roughly 70% of shared
// cache accesses are reads (demand fetches and fills) and 30% writes
// (write-backs and upgrades) — the traffic mix assumed when deriving
// cache TDP from the per-bank duty factor.
const (
	cachePeakReadFrac  = 0.7
	cachePeakWriteFrac = 0.3
)

func buildCores(b *builder) (float64, error) {
	cfg := &b.p.Cfg
	ccfg := cfg.Core
	ccfg.Tech = b.node
	ccfg.Dev = cfg.Dev
	ccfg.LongChannel = cfg.LongChannel
	ccfg.ClockHz = cfg.ClockHz
	if ccfg.Name == "" {
		ccfg.Name = "core"
	}
	cm, err := core.Synthesize(ccfg)
	if err != nil {
		return 0, guard.Wrap(guard.ErrConfig, b.path+".core", err)
	}
	b.p.CoreModel = cm
	if cfg.CorePeak != nil {
		b.p.corePeak = *cfg.CorePeak
	} else {
		b.p.corePeak = core.PeakActivity(ccfg)
	}

	name, n, peak := ccfg.Name, float64(cfg.NumCores), &b.p.corePeak
	b.part[posCores] = func(ar *power.Arena, s *Stats) *power.Item {
		rep := cm.ReportIn(ar, *peak, s.CoreRun)
		rep.Name = name
		group := ar.NewItemN("Cores", 1)
		group.Add(rep)
		group.Rollup()
		group.Scale(n)
		return group
	}
	return cm.Area() * float64(cfg.NumCores), nil
}

// chipCacheCfg completes a shared-cache template with the chip-wide
// technology parameters.
func chipCacheCfg(cfg *Config, cc *cache.Config, node *tech.Node) cache.Config {
	c := *cc
	c.Tech = node
	c.Dev = cfg.Dev
	if c.CellDev == 0 && cfg.Dev != tech.HP {
		c.CellDev = cfg.Dev
	}
	c.LongChannel = cfg.LongChannel
	if c.TargetHz == 0 {
		c.TargetHz = cfg.ClockHz
	}
	return c
}

func buildL2(b *builder) (float64, error) {
	cfg := &b.p.Cfg
	if cfg.L2 == nil {
		return 0, nil
	}
	c, err := cache.Synthesize(chipCacheCfg(cfg, cfg.L2, b.node))
	if err != nil {
		return 0, guard.Wrap(guard.ErrConfig, b.path+".l2", err)
	}
	b.p.L2 = c

	// TDP access rate: limited both by the bank count and by the
	// miss/traffic rate the cores can generate (~2 L2 accesses per core
	// per cycle at saturation).
	acc := cfg.L2PeakDuty * float64(minInt(c.Cfg().Banks, 2*cfg.NumCores)) * cfg.ClockHz
	name, peakR, peakW := cfg.L2.Name, acc*cachePeakReadFrac, acc*cachePeakWriteFrac
	b.part[posL2] = func(ar *power.Arena, s *Stats) *power.Item {
		item := c.ReportIn(ar, peakR, peakW, s.L2Reads, s.L2Writes)
		item.Name = name
		return item
	}
	return c.Area, nil
}

func buildL3(b *builder) (float64, error) {
	cfg := &b.p.Cfg
	if cfg.L3 == nil {
		return 0, nil
	}
	c, err := cache.Synthesize(chipCacheCfg(cfg, cfg.L3, b.node))
	if err != nil {
		return 0, guard.Wrap(guard.ErrConfig, b.path+".l3", err)
	}
	b.p.L3 = c

	acc := cfg.L3PeakDuty * float64(minInt(c.Cfg().Banks, 2*cfg.NumCores)) * cfg.ClockHz
	name, peakR, peakW := cfg.L3.Name, acc*cachePeakReadFrac, acc*cachePeakWriteFrac
	b.part[posL3] = func(ar *power.Arena, s *Stats) *power.Item {
		item := c.ReportIn(ar, peakR, peakW, s.L3Reads, s.L3Writes)
		item.Name = name
		return item
	}
	return c.Area, nil
}

func buildFPU(b *builder) (float64, error) {
	cfg := &b.p.Cfg
	if cfg.SharedFPUs <= 0 {
		return 0, nil
	}
	pat, err := logic.FunctionalUnit(b.node, cfg.Dev, cfg.LongChannel, logic.FPU)
	if err != nil {
		return 0, guard.At(err, b.path)
	}

	n := float64(cfg.SharedFPUs)
	peak := power.Activity{Reads: 0.5 * n * cfg.ClockHz}
	b.part[posFPU] = func(ar *power.Arena, s *Stats) *power.Item {
		fpu := ar.FromPAT("SharedFPU", pat, peak, power.Activity{Reads: s.FPOpsPerSec})
		fpu.Area = pat.Area * n
		fpu.SubLeak = pat.Static.Sub * n
		fpu.GateLeak = pat.Static.Gate * n
		return fpu
	}
	return pat.Area * n, nil
}

func buildMC(b *builder) (float64, error) {
	cfg := &b.p.Cfg
	if cfg.MC == nil {
		return 0, nil
	}
	m := *cfg.MC
	m.Tech = b.node
	m.Dev = cfg.Dev
	m.LongChannel = cfg.LongChannel
	ctl, err := mc.Synthesize(m)
	if err != nil {
		return 0, guard.Wrap(guard.ErrConfig, b.path+".mc", err)
	}
	b.p.mcCtl = ctl

	peakTxn := 0.0
	if cfg.MC.PeakBandwidth > 0 {
		peakTxn = cfg.MCPeakUtil * cfg.MC.PeakBandwidth / 64
	}
	// Read/write transaction rates apply uniformly to the front end,
	// transaction engine, and PHY.
	peak := power.Activity{Reads: peakTxn * 0.6, Writes: peakTxn * 0.4}
	b.part[posMC] = func(ar *power.Arena, s *Stats) *power.Item {
		run := power.Activity{Reads: s.MCAccesses * 0.6, Writes: s.MCAccesses * 0.4}
		rep := ar.NewItemN("MemoryController", 3)
		rep.Add(
			ar.FromPAT("frontend", ctl.FrontEnd, peak, run),
			ar.FromPAT("backend", ctl.Backend, peak, run),
			ar.FromPAT("phy", ctl.PHY, peak, run),
		)
		return rep
	}
	return ctl.Area, nil
}

func buildNIU(b *builder) (float64, error) {
	cfg := &b.p.Cfg
	if cfg.NIU == nil {
		return 0, nil
	}
	n := *cfg.NIU
	n.Tech = b.node
	n.Dev = cfg.Dev
	n.LongChannel = cfg.LongChannel
	pat, err := mc.SynthesizeNIU(n)
	if err != nil {
		return 0, guard.Wrap(guard.ErrConfig, b.path+".niu", err)
	}

	peak := power.Activity{Reads: 2 * cfg.NIU.Bandwidth * float64(maxInt(cfg.NIU.Count, 1))}
	b.part[posNIU] = func(ar *power.Arena, s *Stats) *power.Item {
		return ar.FromPAT("NIU", pat, peak, power.Activity{Reads: s.NIUBitsPerSec})
	}
	return pat.Area, nil
}

func buildPCIe(b *builder) (float64, error) {
	cfg := &b.p.Cfg
	if cfg.PCIe == nil {
		return 0, nil
	}
	n := *cfg.PCIe
	n.Tech = b.node
	n.Dev = cfg.Dev
	n.LongChannel = cfg.LongChannel
	pat, err := mc.SynthesizePCIe(n)
	if err != nil {
		return 0, guard.Wrap(guard.ErrConfig, b.path+".pcie", err)
	}

	lanes := float64(maxInt(cfg.PCIe.Lanes, 1))
	gbps := cfg.PCIe.GbpsPerLane
	if gbps <= 0 {
		gbps = 2.5
	}
	peak := power.Activity{Reads: lanes * gbps * 1e9}
	b.part[posPCIe] = func(ar *power.Arena, s *Stats) *power.Item {
		return ar.FromPAT("PCIe", pat, peak, power.Activity{Reads: s.PCIeBitsPerSec})
	}
	return pat.Area, nil
}

// buildFabric synthesizes the configured fabric; every failure is a
// configuration error at the chip's ".noc" path.
func buildFabric(b *builder) (float64, error) {
	if err := synthFabric(b); err != nil {
		return 0, guard.Wrap(guard.ErrConfig, b.path+".noc", err)
	}
	return 0, nil
}

// synthFabric synthesizes the fabric's routers and links, registers its
// part, and folds their areas into b.base. The part's peak and runtime
// rates are flits (or transfers) per second per router, link, or bus.
func synthFabric(b *builder) error {
	cfg := &b.p.Cfg
	noc := &cfg.NoC
	p := b.p
	node := b.node
	hz := cfg.ClockHz
	chipSide := math.Sqrt(b.base * 1.1)
	var err error
	switch noc.Kind {
	case NoneIC:
		return nil
	case Mesh:
		mx, my := noc.MeshX, noc.MeshY
		if mx <= 0 || my <= 0 {
			return errors.New("mesh NoC requires MeshX/MeshY")
		}
		// The router's local port fans out to the whole cluster: with
		// clustering the router serves ClusterSize cores plus the L2
		// slice, so give it one extra port beyond the 4 mesh directions.
		ports := 5
		if noc.ClusterSize > 1 {
			ports = 6
		}
		if p.router, err = interconnect.SynthesizeRouter(interconnect.RouterConfig{
			Tech: node, Dev: cfg.Dev, LongChannel: cfg.LongChannel,
			FlitBits: noc.FlitBits, Ports: ports,
			VirtualChannels: noc.VirtualChannels, BuffersPerVC: noc.BuffersPerVC,
			Clock: cfg.ClockHz,
		}); err != nil {
			return err
		}
		if p.link, err = interconnect.SynthesizeLink(interconnect.LinkConfig{
			Tech: node, Dev: cfg.Dev, LongChannel: cfg.LongChannel,
			Projection: cfg.WireProjection,
			FlitBits:   noc.FlitBits, Length: chipSide / float64(mx), Clock: cfg.ClockHz,
		}); err != nil {
			return err
		}
		if noc.ClusterSize > 1 {
			// Intra-cluster bus spanning one mesh tile, connecting the
			// cluster's cores and its L2 slice to the router.
			if p.clusterBus, err = interconnect.SynthesizeBus(interconnect.BusConfig{
				Tech: node, Dev: cfg.Dev, LongChannel: cfg.LongChannel,
				Bits: noc.FlitBits, Length: chipSide / float64(mx),
				Agents: noc.ClusterSize + 2, Clock: cfg.ClockHz,
			}); err != nil {
				return err
			}
		}
		router, link, bus := p.router, p.link, p.clusterBus
		nr, nl := float64(mx*my), float64(linkCount(mx, my))
		const peakDuty = 0.4 // flits per router per cycle at TDP
		peak, busPeak := power.Activity{Reads: peakDuty * hz}, power.Activity{Reads: 0.6 * hz}
		b.part[posFabric] = func(ar *power.Arena, s *Stats) *power.Item {
			run := power.Activity{Reads: s.NoCFlits}
			ic := ar.NewItemN("NoC", 3)
			routers := ar.FromPAT("routers", router.PAT, peak, run)
			routers.Scale(nr)
			links := ar.FromPAT("links", link.PAT, peak, run)
			links.Scale(nl)
			ic.Add(routers, links)
			if bus != nil {
				buses := ar.FromPAT("clusterbus", bus.PAT, busPeak, power.Activity{Reads: s.ClusterBusTransfers})
				buses.Scale(nr)
				ic.Add(buses)
			}
			return ic
		}
		b.base += router.Area*nr + link.Area*nl
		if bus != nil {
			b.base += bus.Area * nr
		}
	case Ring:
		stations := cfg.NumCores + banksOf(cfg.L2)
		if p.router, err = interconnect.SynthesizeRouter(interconnect.RouterConfig{
			Tech: node, Dev: cfg.Dev, LongChannel: cfg.LongChannel,
			FlitBits: noc.FlitBits, Ports: 3,
			VirtualChannels: noc.VirtualChannels, BuffersPerVC: noc.BuffersPerVC,
			Clock: cfg.ClockHz,
		}); err != nil {
			return err
		}
		// The ring snakes through the floorplan: total length ~2 chip
		// perimeters, split evenly between stations.
		ringLen := 4 * chipSide
		if p.link, err = interconnect.SynthesizeLink(interconnect.LinkConfig{
			Tech: node, Dev: cfg.Dev, LongChannel: cfg.LongChannel,
			Projection: cfg.WireProjection,
			FlitBits:   noc.FlitBits, Length: ringLen / float64(stations), Clock: cfg.ClockHz,
		}); err != nil {
			return err
		}
		// Every flit traverses ~stations/4 hops on average, so per-router
		// forwarding duty runs high at TDP.
		const peakDuty = 0.5
		router, link, ns := p.router, p.link, float64(stations)
		peak := power.Activity{Reads: peakDuty * hz}
		b.part[posFabric] = func(ar *power.Arena, s *Stats) *power.Item {
			run := power.Activity{Reads: s.NoCFlits}
			ic := ar.NewItemN("Ring", 2)
			routers := ar.FromPAT("routers", router.PAT, peak, run)
			routers.Scale(ns)
			links := ar.FromPAT("links", link.PAT, peak, run)
			links.Scale(ns)
			ic.Add(routers, links)
			return ic
		}
		b.base += (router.Area + link.Area) * ns
	case Bus:
		if p.link, err = interconnect.SynthesizeBus(interconnect.BusConfig{
			Tech: node, Dev: cfg.Dev, LongChannel: cfg.LongChannel,
			Bits: noc.FlitBits, Length: chipSide,
			Agents: cfg.NumCores + maxInt(1, banksOf(cfg.L2)), Clock: cfg.ClockHz,
		}); err != nil {
			return err
		}
		const peakDuty = 0.8
		b.part[posFabric] = linkFabric("Bus", "bus", p.link, peakDuty*hz)
		b.base += p.link.Area
	case Crossbar:
		if p.link, err = interconnect.SynthesizeCrossbar(interconnect.CrossbarConfig{
			Tech: node, Dev: cfg.Dev, LongChannel: cfg.LongChannel,
			InPorts: cfg.NumCores + 1, OutPorts: maxInt(1, banksOf(cfg.L2)) + 1,
			Bits: noc.FlitBits, SpanLength: 0.35 * chipSide,
		}); err != nil {
			return err
		}
		peakDuty := 0.5 * float64(cfg.NumCores) // port pairs busy at TDP
		b.part[posFabric] = linkFabric("Crossbar", "crossbar", p.link, peakDuty*hz)
		b.base += p.link.Area
	default:
		return fmt.Errorf("unknown fabric kind %d (none|bus|crossbar|mesh|ring)", int(noc.Kind))
	}
	return nil
}

// linkFabric scores a single-link fabric (shared bus or crossbar) driven
// at peak transfers per second at TDP.
func linkFabric(group, leaf string, link *interconnect.Link, peak float64) part {
	return func(ar *power.Arena, s *Stats) *power.Item {
		ic := ar.NewItemN(group, 1)
		ic.Add(ar.FromPAT(leaf, link.PAT, power.Activity{Reads: peak}, power.Activity{Reads: s.NoCFlits}))
		return ic
	}
}

func buildClock(b *builder) (float64, error) {
	cfg := &b.p.Cfg
	sinkMult := cfg.ClockSinkMult
	if sinkMult <= 0 {
		sinkMult = 1
	}
	net, err := clock.Synthesize(clock.Config{
		Tech: b.node, Dev: cfg.Dev, LongChannel: cfg.LongChannel,
		ChipArea: b.base, ClockHz: cfg.ClockHz, GatingFactor: cfg.ClockGating,
		SinkMult: sinkMult,
	})
	if err != nil {
		return 0, err
	}

	gating := cfg.ClockGating
	b.part[posClock] = func(ar *power.Arena, s *Stats) *power.Item {
		clk := ar.NewItem("ClockNetwork")
		clk.Area = net.Area
		clk.PeakDynamic = net.PowerPeak
		clk.SubLeak = net.Static.Sub
		clk.GateLeak = net.Static.Gate
		// Runtime clock power follows the pipeline duty; shared-cache or
		// fabric traffic without one floors it at 0.5. With no runtime
		// statistics only the TDP column is populated.
		util := s.CoreRun.PipelineDuty
		if util <= 0 && (s.L2Reads > 0 || s.NoCFlits > 0) {
			util = 0.5
		}
		if util > 0 {
			// Same network, gated down with activity.
			clk.RuntimeDynamic = net.PowerMax * (0.35 + 0.65*util) * gating
		}
		return clk
	}
	return 0, nil
}

func buildOther(b *builder) (float64, error) {
	area := b.p.Cfg.OtherArea
	if area <= 0 {
		return 0, nil
	}
	b.part[posOther] = func(ar *power.Arena, _ *Stats) *power.Item {
		it := ar.NewItem("Other(unmodeled)")
		it.Area = area
		return it
	}
	return 0, nil
}
