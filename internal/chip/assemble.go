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

// Chip assembly as a registry fold, and the report compiled from it.
//
// New walks the subsystems table in order: every builder synthesizes its
// subsystem through the memoized component layer (core.Synthesize,
// cache.Synthesize, ...) and stores the models on the Processor. The
// fabric and clock size themselves from the area accumulated by
// everything built before them; the table order is also the
// floating-point accumulation order of that area, so it fixes every
// downstream number.
//
// The report comes from one walk per subsystem, defined next to its
// builder: it adds the subsystem's report nodes to a power.Builder and
// gives each leaf its dynamic power under the chip-level Stats the
// caller passes in. Processor.walk calls them in report order, which
// differs from build order (the fabric reports before the off-chip
// interfaces it is sized after). compile (in report.go, once for every
// chip and score slab) runs the walk at peakStats, the chip's TDP
// activity, so each leaf's dynamic power is its TDP column; Score runs
// it at the runtime Stats through a scoring Builder that keeps only the
// inputs, so a part's leaves, their conditions and their activity
// formulas are written once. A score whose inputs do not match the
// program's count is an internal fault. The walks read the synthesized
// models and never mutate them, so one memoized model can back any
// number of chips concurrently. Where a model was first synthesized
// under another name, the walk names the subtree's root after this
// chip's config (child names are constants).
//
// Chips are assembled serially: sweeps, shards and concurrent requests
// already evaluate many chips at once, so parallelism comes from the
// design points, not from inside one build.

// subsystems is the assembly registry, in build order. Adding a
// subsystem to the chip means adding a row here, its walk to
// Processor.walk and its TDP activity to peakStats, not editing New.
// Builders return their component-area contribution. The fabric reads
// the area of the rows above it and folds its router, link, and
// cluster-bus areas into builder.base as separate terms, returning 0;
// the clock network reads the area including the fabric.
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
}

// builder is the transient assembly state threaded through the registry.
type builder struct {
	p    *Processor
	node *tech.Node
	path string  // guard path prefix for error attribution
	base float64 // accumulated component area (m^2), pre-overhead
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

// coreName is the name the cores' report subtree roots in.
func coreName(cfg *Config) string {
	if cfg.Core.Name == "" {
		return "core"
	}
	return cfg.Core.Name
}

func buildCores(b *builder) (float64, error) {
	cfg := &b.p.Cfg
	ccfg := cfg.Core
	ccfg.Tech = b.node
	ccfg.Dev = cfg.Dev
	ccfg.LongChannel = cfg.LongChannel
	ccfg.ClockHz = cfg.ClockHz
	ccfg.Name = coreName(cfg)
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
	return cm.Area() * float64(cfg.NumCores), nil
}

// walkCores adds one core's subtree, at the per-core activity
// s.CoreRun, under a "Cores" group replicated NumCores times.
func (p *Processor) walkCores(b *power.Builder, s *Stats) {
	b.Open("Cores")
	p.CoreModel.Walk(b, coreName(&p.Cfg), &s.CoreRun)
	b.Scale(b.Close(), float64(p.Cfg.NumCores))
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
	units := pat.Units(cfg.SharedFPUs)
	b.p.fpu = &units
	return units.Area, nil
}

// walkFPU adds the shared FPUs as one leaf of SharedFPUs units.
func (p *Processor) walkFPU(b *power.Builder, s *Stats) {
	if p.fpu != nil {
		b.Leaf("SharedFPU", p.fpu, p.fpu.Energy.DynamicPower(power.Activity{Reads: s.FPOpsPerSec}))
	}
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
	return ctl.Area, nil
}

// walkMC adds the memory controller. Its transactions split 60/40
// between reads and writes and apply uniformly to the front end,
// transaction engine, and PHY.
func (p *Processor) walkMC(b *power.Builder, s *Stats) {
	ctl := p.mcCtl
	if ctl == nil {
		return
	}
	txn := power.Activity{Reads: s.MCAccesses * 0.6, Writes: s.MCAccesses * 0.4}
	b.Open("MemoryController")
	b.Leaf("frontend", &ctl.FrontEnd, ctl.FrontEnd.Energy.DynamicPower(txn))
	b.Leaf("backend", &ctl.Backend, ctl.Backend.Energy.DynamicPower(txn))
	b.Leaf("phy", &ctl.PHY, ctl.PHY.Energy.DynamicPower(txn))
	b.Close()
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
	b.p.niu = &pat
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
	b.p.pcie = &pat
	return pat.Area, nil
}

// walkIO adds the NIU and the PCIe controller.
func (p *Processor) walkIO(b *power.Builder, s *Stats) {
	if p.niu != nil {
		b.Leaf("NIU", p.niu, p.niu.Energy.DynamicPower(power.Activity{Reads: s.NIUBitsPerSec}))
	}
	if p.pcie != nil {
		b.Leaf("PCIe", p.pcie, p.pcie.Energy.DynamicPower(power.Activity{Reads: s.PCIeBitsPerSec}))
	}
}

// buildFabric synthesizes the configured fabric; every failure is a
// configuration error at the chip's ".noc" path.
func buildFabric(b *builder) (float64, error) {
	if err := synthFabric(b); err != nil {
		return 0, guard.Wrap(guard.ErrConfig, b.path+".noc", err)
	}
	return 0, nil
}

// synthFabric synthesizes the fabric's routers and links and folds
// their areas into b.base.
func synthFabric(b *builder) error {
	cfg := &b.p.Cfg
	noc := &cfg.NoC
	p := b.p
	node := b.node
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
		nr, nl := float64(mx*my), float64(linkCount(mx, my))
		b.base += p.router.Area*nr + p.link.Area*nl
		if p.clusterBus != nil {
			b.base += p.clusterBus.Area * nr
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
		b.base += (p.router.Area + p.link.Area) * float64(stations)
	case Bus:
		if p.link, err = interconnect.SynthesizeBus(interconnect.BusConfig{
			Tech: node, Dev: cfg.Dev, LongChannel: cfg.LongChannel,
			Bits: noc.FlitBits, Length: chipSide,
			Agents: cfg.NumCores + maxInt(1, banksOf(cfg.L2)), Clock: cfg.ClockHz,
		}); err != nil {
			return err
		}
		b.base += p.link.Area
	case Crossbar:
		if p.link, err = interconnect.SynthesizeCrossbar(interconnect.CrossbarConfig{
			Tech: node, Dev: cfg.Dev, LongChannel: cfg.LongChannel,
			InPorts: cfg.NumCores + 1, OutPorts: maxInt(1, banksOf(cfg.L2)) + 1,
			Bits: noc.FlitBits, SpanLength: 0.35 * chipSide,
		}); err != nil {
			return err
		}
		b.base += p.link.Area
	default:
		return fmt.Errorf("unknown fabric kind %d (none|bus|crossbar|mesh|ring)", int(noc.Kind))
	}
	return nil
}

// walkFabric adds the fabric. Its rates are flits (or transfers) per
// second per router, link, or bus; a mesh or ring leaf stands for all
// its routers or links.
func (p *Processor) walkFabric(b *power.Builder, s *Stats) {
	noc := &p.Cfg.NoC
	flits := power.Activity{Reads: s.NoCFlits}
	switch noc.Kind {
	case Mesh:
		nr, nl := float64(noc.MeshX*noc.MeshY), float64(linkCount(noc.MeshX, noc.MeshY))
		b.Open("NoC")
		b.Scale(b.Leaf("routers", &p.router.PAT, p.router.Energy.DynamicPower(flits)), nr)
		b.Scale(b.Leaf("links", &p.link.PAT, p.link.Energy.DynamicPower(flits)), nl)
		if p.clusterBus != nil {
			b.Scale(b.Leaf("clusterbus", &p.clusterBus.PAT, p.clusterBus.Energy.DynamicPower(power.Activity{Reads: s.ClusterBusTransfers})), nr)
		}
		b.Close()
	case Ring:
		ns := float64(p.Cfg.NumCores + banksOf(p.Cfg.L2))
		b.Open("Ring")
		b.Scale(b.Leaf("routers", &p.router.PAT, p.router.Energy.DynamicPower(flits)), ns)
		b.Scale(b.Leaf("links", &p.link.PAT, p.link.Energy.DynamicPower(flits)), ns)
		b.Close()
	case Bus:
		b.Open("Bus")
		b.Leaf("bus", &p.link.PAT, p.link.Energy.DynamicPower(flits))
		b.Close()
	case Crossbar:
		b.Open("Crossbar")
		b.Leaf("crossbar", &p.link.PAT, p.link.Energy.DynamicPower(flits))
		b.Close()
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
	b.p.clk = net
	return 0, nil
}

// walkClock adds the clock network. Its TDP is the gated peak
// PowerPeak; at runtime its power follows the pipeline duty, and
// shared-cache or fabric traffic without one floors it at 0.5. With no
// runtime statistics it is 0.
func (p *Processor) walkClock(b *power.Builder, s *Stats) {
	net := p.clk
	rd := net.PowerPeak
	if b.Scoring() {
		util := s.CoreRun.PipelineDuty
		if util <= 0 && (s.L2Reads > 0 || s.NoCFlits > 0) {
			util = 0.5
		}
		rd = 0
		if util > 0 {
			// Same network, gated down with activity.
			rd = net.PowerMax * (0.35 + 0.65*util) * p.Cfg.ClockGating
		}
	}
	b.Leaf("ClockNetwork", &net.PAT, rd)
}
