package chip

import (
	"math"

	"mcpat/internal/cache"
	"mcpat/internal/clock"
	"mcpat/internal/component"
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
// cache.Synthesize, ...) and registers a part — the synthesized component
// plus the closure mapping chip-level Stats to its activity assignment —
// at a fixed report position. Build order and report order differ (the
// fabric and clock size themselves from the area accumulated by
// everything built before them, but report before the off-chip
// interfaces), which is why parts carry positions instead of relying on
// build sequence. The table order is also the floating-point
// accumulation order of the component area, so it fixes every
// downstream number.
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
	has  [numPos]bool
}

func (b *builder) add(pos int, comp component.Component, assign func(*Stats) component.Assignment) {
	b.part[pos] = part{comp: comp, assign: assign}
	b.has[pos] = true
}

// finish compacts the registered parts into report order, sized exactly
// so the report's child fold never regrows the slice.
func (b *builder) finish() {
	n := 0
	for _, ok := range b.has {
		if ok {
			n++
		}
	}
	parts := make([]part, 0, n)
	for i := range b.part {
		if b.has[i] {
			parts = append(parts, b.part[i])
		}
	}
	b.p.parts = parts
	b.p.baseArea = b.base
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
	area := cm.Area() * float64(cfg.NumCores)

	peak := b.p.corePeak
	b.add(posCores,
		&coreComponent{name: ccfg.Name, n: float64(cfg.NumCores), core: cm},
		func(s *Stats) component.Assignment {
			return component.Assignment{Vec: core.ActivityPair{Peak: peak, Run: s.CoreRun}}
		})
	return area, nil
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
	b.add(posL2,
		&cacheComponent{name: cfg.L2.Name, cache: c},
		func(s *Stats) component.Assignment {
			return component.Assignment{
				Peak: power.Activity{Reads: acc * cachePeakReadFrac, Writes: acc * cachePeakWriteFrac},
				Run:  power.Activity{Reads: s.L2Reads, Writes: s.L2Writes},
			}
		})
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
	b.add(posL3,
		&cacheComponent{name: cfg.L3.Name, cache: c},
		func(s *Stats) component.Assignment {
			return component.Assignment{
				Peak: power.Activity{Reads: acc * cachePeakReadFrac, Writes: acc * cachePeakWriteFrac},
				Run:  power.Activity{Reads: s.L3Reads, Writes: s.L3Writes},
			}
		})
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
	b.p.fpu = pat
	n := float64(cfg.SharedFPUs)

	hz := cfg.ClockHz
	b.add(posFPU,
		&fpuComponent{pat: pat, n: n},
		func(s *Stats) component.Assignment {
			return component.Assignment{
				Peak: power.Activity{Reads: 0.5 * n * hz},
				Run:  power.Activity{Reads: s.FPOpsPerSec},
			}
		})
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
	b.add(posMC,
		&mcComponent{ctl: ctl},
		func(s *Stats) component.Assignment {
			return component.Assignment{
				Peak: power.Activity{Reads: peakTxn * 0.6, Writes: peakTxn * 0.4},
				Run:  power.Activity{Reads: s.MCAccesses * 0.6, Writes: s.MCAccesses * 0.4},
			}
		})
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
	b.p.niu = &pat

	peakBits := 2 * cfg.NIU.Bandwidth * float64(maxInt(cfg.NIU.Count, 1))
	b.add(posNIU,
		&ioComponent{name: "NIU", pat: pat},
		func(s *Stats) component.Assignment {
			return component.Assignment{
				Peak: power.Activity{Reads: peakBits},
				Run:  power.Activity{Reads: s.NIUBitsPerSec},
			}
		})
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

	lanes := float64(maxInt(cfg.PCIe.Lanes, 1))
	gbps := cfg.PCIe.GbpsPerLane
	if gbps <= 0 {
		gbps = 2.5
	}
	peakBits := lanes * gbps * 1e9
	b.add(posPCIe,
		&ioComponent{name: "PCIe", pat: pat},
		func(s *Stats) component.Assignment {
			return component.Assignment{
				Peak: power.Activity{Reads: peakBits},
				Run:  power.Activity{Reads: s.PCIeBitsPerSec},
			}
		})
	return pat.Area, nil
}

func buildFabric(b *builder) (float64, error) {
	cfg := &b.p.Cfg
	p := b.p
	node := b.node
	hz := cfg.ClockHz
	chipSide := math.Sqrt(b.base * 1.1)
	var err error
	switch cfg.NoC.Kind {
	case Mesh:
		mx, my := cfg.NoC.MeshX, cfg.NoC.MeshY
		if mx <= 0 || my <= 0 {
			return 0, guard.Configf(b.path+".noc", "mesh NoC requires MeshX/MeshY")
		}
		// The router's local port fans out to the whole cluster: with
		// clustering the router serves ClusterSize cores plus the L2
		// slice, so give it one extra port beyond the 4 mesh directions.
		ports := 5
		if cfg.NoC.ClusterSize > 1 {
			ports = 6
		}
		if p.router, err = interconnect.SynthesizeRouter(interconnect.RouterConfig{
			Tech: node, Dev: cfg.Dev, LongChannel: cfg.LongChannel,
			FlitBits: cfg.NoC.FlitBits, Ports: ports,
			VirtualChannels: cfg.NoC.VirtualChannels, BuffersPerVC: cfg.NoC.BuffersPerVC,
			Clock: cfg.ClockHz,
		}); err != nil {
			return 0, err
		}
		if p.link, err = interconnect.SynthesizeLink(interconnect.LinkConfig{
			Tech: node, Dev: cfg.Dev, LongChannel: cfg.LongChannel,
			Projection: cfg.WireProjection,
			FlitBits:   cfg.NoC.FlitBits, Length: chipSide / float64(mx), Clock: cfg.ClockHz,
		}); err != nil {
			return 0, err
		}
		if cfg.NoC.ClusterSize > 1 {
			// Intra-cluster bus spanning one mesh tile, connecting the
			// cluster's cores and its L2 slice to the router.
			if p.clusterBus, err = interconnect.SynthesizeBus(interconnect.BusConfig{
				Tech: node, Dev: cfg.Dev, LongChannel: cfg.LongChannel,
				Bits: cfg.NoC.FlitBits, Length: chipSide / float64(mx),
				Agents: cfg.NoC.ClusterSize + 2, Clock: cfg.ClockHz,
			}); err != nil {
				return 0, err
			}
		}
		nr := float64(mx * my)
		nl := float64(linkCount(mx, my))
		clustered := p.clusterBus != nil
		const peakDuty = 0.4 // flits per router per cycle at TDP
		b.add(posFabric,
			&fabricComponent{kind: Mesh, router: p.router, link: p.link,
				clusterBus: p.clusterBus, routers: nr, links: nl},
			func(s *Stats) component.Assignment {
				a := component.Assignment{
					Peak: power.Activity{Reads: peakDuty * hz},
					Run:  power.Activity{Reads: s.NoCFlits},
				}
				if clustered {
					a.AuxPeak = power.Activity{Reads: 0.6 * hz}
					a.AuxRun = power.Activity{Reads: s.ClusterBusTransfers}
				}
				return a
			})
	case Ring:
		stations := cfg.NumCores + banksOf(cfg.L2)
		if p.router, err = interconnect.SynthesizeRouter(interconnect.RouterConfig{
			Tech: node, Dev: cfg.Dev, LongChannel: cfg.LongChannel,
			FlitBits: cfg.NoC.FlitBits, Ports: 3,
			VirtualChannels: cfg.NoC.VirtualChannels, BuffersPerVC: cfg.NoC.BuffersPerVC,
			Clock: cfg.ClockHz,
		}); err != nil {
			return 0, err
		}
		// The ring snakes through the floorplan: total length ~2 chip
		// perimeters, split evenly between stations.
		ringLen := 4 * chipSide
		if p.link, err = interconnect.SynthesizeLink(interconnect.LinkConfig{
			Tech: node, Dev: cfg.Dev, LongChannel: cfg.LongChannel,
			Projection: cfg.WireProjection,
			FlitBits:   cfg.NoC.FlitBits, Length: ringLen / float64(stations), Clock: cfg.ClockHz,
		}); err != nil {
			return 0, err
		}
		// Every flit traverses ~stations/4 hops on average, so per-router
		// forwarding duty runs high at TDP.
		const peakDuty = 0.5
		ns := float64(stations)
		b.add(posFabric,
			&fabricComponent{kind: Ring, router: p.router, link: p.link, routers: ns, links: ns},
			func(s *Stats) component.Assignment {
				return component.Assignment{
					Peak: power.Activity{Reads: peakDuty * hz},
					Run:  power.Activity{Reads: s.NoCFlits},
				}
			})
	case Bus:
		if p.link, err = interconnect.SynthesizeBus(interconnect.BusConfig{
			Tech: node, Dev: cfg.Dev, LongChannel: cfg.LongChannel,
			Bits: cfg.NoC.FlitBits, Length: chipSide,
			Agents: cfg.NumCores + maxInt(1, banksOf(cfg.L2)), Clock: cfg.ClockHz,
		}); err != nil {
			return 0, err
		}
		const peakDuty = 0.8
		b.add(posFabric,
			&fabricComponent{kind: Bus, link: p.link},
			func(s *Stats) component.Assignment {
				return component.Assignment{
					Peak: power.Activity{Reads: peakDuty * hz},
					Run:  power.Activity{Reads: s.NoCFlits},
				}
			})
	case Crossbar:
		if p.link, err = interconnect.SynthesizeCrossbar(interconnect.CrossbarConfig{
			Tech: node, Dev: cfg.Dev, LongChannel: cfg.LongChannel,
			InPorts: cfg.NumCores + 1, OutPorts: maxInt(1, banksOf(cfg.L2)) + 1,
			Bits: cfg.NoC.FlitBits, SpanLength: 0.35 * chipSide,
		}); err != nil {
			return 0, err
		}
		peakDuty := 0.5 * float64(cfg.NumCores) // port pairs busy at TDP
		b.add(posFabric,
			&fabricComponent{kind: Crossbar, link: p.link},
			func(s *Stats) component.Assignment {
				return component.Assignment{
					Peak: power.Activity{Reads: peakDuty * hz},
					Run:  power.Activity{Reads: s.NoCFlits},
				}
			})
	}
	switch {
	case cfg.NoC.Kind == Ring:
		stations := float64(cfg.NumCores + banksOf(cfg.L2))
		b.base += (p.router.Area + p.link.Area) * stations
	case p.router != nil:
		b.base += p.router.Area*float64(cfg.NoC.MeshX*cfg.NoC.MeshY) +
			p.link.Area*float64(linkCount(cfg.NoC.MeshX, cfg.NoC.MeshY))
		if p.clusterBus != nil {
			b.base += p.clusterBus.Area * float64(cfg.NoC.MeshX*cfg.NoC.MeshY)
		}
	case p.link != nil:
		b.base += p.link.Area
	}
	return 0, nil
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

	b.add(posClock,
		&clockComponent{net: net, gating: cfg.ClockGating},
		func(s *Stats) component.Assignment {
			var a component.Assignment
			if s.CoreRun.PipelineDuty > 0 || s.L2Reads > 0 || s.NoCFlits > 0 {
				util := s.CoreRun.PipelineDuty
				if util <= 0 {
					util = 0.5
				}
				a.Run.Reads = util
			}
			return a
		})
	return 0, nil
}

func buildOther(b *builder) (float64, error) {
	cfg := &b.p.Cfg
	if cfg.OtherArea <= 0 {
		return 0, nil
	}
	b.add(posOther,
		&staticComponent{item: power.Item{Name: "Other(unmodeled)", Area: cfg.OtherArea}},
		func(*Stats) component.Assignment { return component.Assignment{} })
	return 0, nil
}
