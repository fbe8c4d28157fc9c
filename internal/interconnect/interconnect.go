// Package interconnect implements McPAT's on-chip communication models:
// NoC routers (input buffers, virtual-channel and switch arbiters, and a
// crossbar), point-to-point repeated links, shared buses, and flat
// crossbars (the style of Niagara's PCX/CPX core-to-cache crossbar).
//
// Per-flit/per-transfer energies are reported in Energy.Read; router
// buffer writes are folded into the per-flit traversal energy.
package interconnect

import (
	"fmt"
	"math"

	"mcpat/internal/array"
	"mcpat/internal/circuit"
	"mcpat/internal/power"
	"mcpat/internal/tech"
)

// RouterConfig describes one NoC router.
type RouterConfig struct {
	Tech        *tech.Node
	Dev         tech.DeviceType
	LongChannel bool

	FlitBits        int // payload width
	Ports           int // in = out ports (5 for a 2D mesh)
	VirtualChannels int // per input port
	BuffersPerVC    int // flit slots per VC

	Clock float64 // Hz; used only for minimum-cycle checking (0 = skip)
}

// Router is a synthesized NoC router with per-flit energies.
type Router struct {
	power.PAT

	// Component breakdown (per router).
	Buffers  power.PAT
	Crossbar power.PAT
	Arbiters power.PAT

	cfg RouterConfig
}

// NewRouter synthesizes a router. Energy.Read is the energy for one flit
// to traverse the router (buffer write + buffer read + switch arbitration
// + crossbar traversal).
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Tech == nil {
		return nil, fmt.Errorf("interconnect: router requires a technology node")
	}
	if cfg.FlitBits <= 0 || cfg.Ports <= 1 {
		return nil, fmt.Errorf("interconnect: invalid router geometry (flit=%d ports=%d)", cfg.FlitBits, cfg.Ports)
	}
	if cfg.VirtualChannels <= 0 {
		cfg.VirtualChannels = 1
	}
	if cfg.BuffersPerVC <= 0 {
		cfg.BuffersPerVC = 4
	}
	c := circuit.NewCtx(cfg.Tech, cfg.Dev, cfg.LongChannel)

	// --- Input buffers: one small RAM per input port. -----------------
	buf, err := array.New(array.Config{
		Name:      "router.buffer",
		Tech:      cfg.Tech,
		Periph:    cfg.Dev,
		Cell:      cfg.Dev,
		Entries:   cfg.VirtualChannels * cfg.BuffersPerVC,
		EntryBits: cfg.FlitBits,
		CellKind:  array.DFF,
		RdPorts:   1,
		WrPorts:   1,
	})
	if err != nil {
		return nil, err
	}
	bufPAT := buf.PAT
	bufPAT.Area *= float64(cfg.Ports)
	bufPAT.Static = bufPAT.Static.Scale(float64(cfg.Ports))

	// --- Crossbar: Ports x Ports, FlitBits wide. -----------------------
	xbar := crossbarPAT(c, cfg.Ports, cfg.Ports, cfg.FlitBits)

	// --- Arbiters: VC allocation + switch allocation. -------------------
	arb := arbiterPAT(c, cfg.Ports*cfg.VirtualChannels, 2) // two allocation stages

	per := power.PAT{
		Energy: power.Energy{
			Read: buf.Energy.Write + buf.Energy.Read + xbar.Energy.Read + arb.Energy.Read,
		},
		Static: bufPAT.Static.Add(xbar.Static).Add(arb.Static),
		Area:   bufPAT.Area + xbar.Area + arb.Area,
		Delay:  math.Max(buf.AccessTime, xbar.Delay) + arb.Delay,
	}
	per.Cycle = math.Max(per.Delay/3, 6*c.FO4()) // 3-stage pipelined router

	return &Router{
		PAT:      per,
		Buffers:  bufPAT,
		Crossbar: xbar,
		Arbiters: arb,
		cfg:      cfg,
	}, nil
}

// crossbarPAT models a matrix crossbar of nIn x nOut ports, w bits wide,
// built from tri-state crosspoint drivers over a wire matrix whose
// dimensions follow from the port count and wire pitch.
func crossbarPAT(c circuit.Ctx, nIn, nOut, w int) power.PAT {
	n := c.Node
	wire := n.Wire(tech.Aggressive, tech.Global)
	pitch := wire.Pitch

	// Physical extent of the wire matrix.
	width := float64(nOut) * float64(w) * pitch
	height := float64(nIn) * float64(w) * pitch

	wmin := n.MinWidthN()
	drvW := 8 * wmin // crosspoint tri-state driver size

	// One flit transfer switches one input row and one output column per
	// bit: the input wire sees nOut crosspoint loads, the output wire
	// sees nIn drain loads.
	cInWire := width*wire.CapPerM + float64(nOut)*drvW*c.Dev.CgPerW
	cOutWire := height*wire.CapPerM + float64(nIn)*drvW*c.Dev.CjPerW
	ePerBit := c.SwitchE(cInWire+cOutWire) + c.SwitchE(c.InvCin(drvW))
	energy := float64(w) * ePerBit

	delay := 0.69*(wire.ResPerM*width)*(cInWire/2) + c.InvDelay(drvW, cOutWire)

	// Leakage: one driver per crosspoint per bit.
	crosspoints := float64(nIn * nOut * w)
	sub := c.Dev.Ioff(crosspoints*drvW/2, crosspoints*drvW/2) * c.Vdd()
	gate := c.Dev.Ig(crosspoints*drvW) * c.Vdd()

	return power.PAT{
		Energy: power.Energy{Read: energy},
		Static: power.Static{Sub: sub, Gate: gate},
		Area:   width * height,
		Delay:  delay,
	}
}

// arbiterPAT models matrix arbiters with r requestors across the given
// number of allocation stages.
func arbiterPAT(c circuit.Ctx, r, stages int) power.PAT {
	if r < 2 {
		r = 2
	}
	n := c.Node
	wmin := n.MinWidthN()
	// Matrix arbiter: r^2 priority cells of ~4 gates each.
	cells := float64(r * r)
	cCell := 4 * 2 * wmin * c.Dev.CgPerW
	energy := float64(stages) * float64(r) * c.SwitchE(cCell) // one row fires per grant
	delay := float64(stages) * (2 + math.Log2(float64(r))) * 0.5 * c.FO4()
	totalW := cells * 4 * 3 * wmin * float64(stages)
	sub := c.Dev.Ioff(totalW/2, totalW/2) * c.Vdd()
	gate := c.Dev.Ig(totalW) * c.Vdd()
	area := cells * 4 * 30 * n.Feature * n.Feature * float64(stages)
	return power.PAT{
		Energy: power.Energy{Read: energy},
		Static: power.Static{Sub: sub, Gate: gate},
		Area:   area,
		Delay:  delay,
	}
}

// LinkConfig describes a point-to-point NoC link.
type LinkConfig struct {
	Tech        *tech.Node
	Dev         tech.DeviceType
	LongChannel bool
	Projection  tech.Projection

	FlitBits int
	Length   float64 // m
	Clock    float64 // Hz; >0 pipelines the link to the cycle time
}

// Link is a synthesized repeated (and possibly pipelined) link. Energy.Read
// is the energy to move one flit across the link assuming a 50% bit
// transition probability.
type Link struct {
	power.PAT
	Stages int // pipeline stages
}

// NewLink builds the link model.
func NewLink(cfg LinkConfig) (*Link, error) {
	if cfg.Tech == nil {
		return nil, fmt.Errorf("interconnect: link requires a technology node")
	}
	if cfg.FlitBits <= 0 || cfg.Length < 0 {
		return nil, fmt.Errorf("interconnect: invalid link (flit=%d len=%g)", cfg.FlitBits, cfg.Length)
	}
	c := circuit.NewCtx(cfg.Tech, cfg.Dev, cfg.LongChannel)
	w := cfg.Tech.Wire(cfg.Projection, tech.Global)
	cycle := 0.0
	if cfg.Clock > 0 {
		cycle = 1 / cfg.Clock
	}
	res, ff, stages := c.PipelineWire(w, cfg.Length, cycle)

	bits := float64(cfg.FlitBits)
	eFlit := bits * (0.5*res.EnergyPerBit + float64(stages-1)*(ff.EnergyClk+0.5*ff.EnergyData))
	sub := bits*res.SubLeak + bits*float64(stages-1)*ff.SubLeak
	gate := bits*res.GateLeak + bits*float64(stages-1)*ff.GateLeak
	area := bits*res.Area + bits*float64(stages-1)*ff.Area

	return &Link{
		PAT: power.PAT{
			Energy: power.Energy{Read: eFlit},
			Static: power.Static{Sub: sub, Gate: gate},
			Area:   area,
			Delay:  res.Delay,
		},
		Stages: stages,
	}, nil
}

// BusConfig describes a shared multi-drop bus connecting n agents over a
// total physical span.
type BusConfig struct {
	Tech        *tech.Node
	Dev         tech.DeviceType
	LongChannel bool

	Bits   int     // bus width
	Length float64 // total bus span (m)
	Agents int     // number of attached agents (drivers/receivers)
	Clock  float64 // Hz (for pipelining/minimum cycle; 0 = unconstrained)

	// LowSwing selects differential low-swing signaling for the bus
	// wires: several-fold lower transfer energy at higher latency, the
	// option McPAT applies to long wide buses.
	LowSwing bool
}

// NewBus models a repeated shared bus plus its central arbiter.
// Energy.Read is the energy of one bus transfer (all Bits, 50% toggle).
func NewBus(cfg BusConfig) (*Link, error) {
	if cfg.Tech == nil {
		return nil, fmt.Errorf("interconnect: bus requires a technology node")
	}
	if cfg.Bits <= 0 || cfg.Agents < 2 {
		return nil, fmt.Errorf("interconnect: invalid bus (bits=%d agents=%d)", cfg.Bits, cfg.Agents)
	}
	c := circuit.NewCtx(cfg.Tech, cfg.Dev, cfg.LongChannel)
	w := cfg.Tech.Wire(tech.Aggressive, tech.Global)
	var res circuit.WireResult
	if cfg.LowSwing {
		res = c.LowSwingWire(w, cfg.Length)
	} else {
		res = c.RepeatedWire(w, cfg.Length)
	}

	// Each agent adds a receiver + tri-state driver load along the span.
	wmin := cfg.Tech.MinWidthN()
	agentCap := float64(cfg.Agents) * (c.InvCin(4*wmin) + 8*wmin*c.Dev.CjPerW)
	eAgent := c.SwitchE(agentCap)

	bits := float64(cfg.Bits)
	arb := arbiterPAT(c, cfg.Agents, 1)
	eTransfer := bits*(0.5*res.EnergyPerBit+0.5*eAgent) + arb.Energy.Read

	sub := bits*res.SubLeak + arb.Static.Sub
	gate := bits*res.GateLeak + arb.Static.Gate
	area := bits*res.Area + arb.Area

	return &Link{
		PAT: power.PAT{
			Energy: power.Energy{Read: eTransfer},
			Static: power.Static{Sub: sub, Gate: gate},
			Area:   area,
			Delay:  res.Delay + arb.Delay,
		},
		Stages: 1,
	}, nil
}

// CrossbarConfig describes a flat crossbar interconnect (Niagara's
// PCX/CPX style) between nIn sources and nOut destinations. SpanLength is
// the physical wire run between an agent and the central switch (roughly
// a third of the chip side for a Niagara-style floorplan); each port also
// carries a small queue of QueueDepth flits.
type CrossbarConfig struct {
	Tech        *tech.Node
	Dev         tech.DeviceType
	LongChannel bool

	InPorts, OutPorts int
	Bits              int
	SpanLength        float64 // m; 0 = switch matrix only
	QueueDepth        int     // per-port FIFO entries; 0 selects 8
}

// NewCrossbar models the flat crossbar. Energy.Read is the energy of one
// transfer through the crossbar: span wire in, port queue write+read,
// switch matrix, span wire out.
func NewCrossbar(cfg CrossbarConfig) (*Link, error) {
	if cfg.Tech == nil {
		return nil, fmt.Errorf("interconnect: crossbar requires a technology node")
	}
	if cfg.InPorts < 1 || cfg.OutPorts < 1 || cfg.Bits <= 0 {
		return nil, fmt.Errorf("interconnect: invalid crossbar (%dx%d, %d bits)", cfg.InPorts, cfg.OutPorts, cfg.Bits)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	c := circuit.NewCtx(cfg.Tech, cfg.Dev, cfg.LongChannel)
	pat := crossbarPAT(c, cfg.InPorts, cfg.OutPorts, cfg.Bits)
	arb := arbiterPAT(c, cfg.InPorts, 1)

	// Span wires: one inbound and one outbound run per transfer.
	var spanE, spanSub, spanGate, spanArea, spanDelay float64
	if cfg.SpanLength > 0 {
		w := cfg.Tech.Wire(tech.Aggressive, tech.Global)
		res := c.RepeatedWire(w, cfg.SpanLength)
		bits := float64(cfg.Bits)
		ports := float64(cfg.InPorts + cfg.OutPorts)
		spanE = 2 * bits * 0.5 * res.EnergyPerBit
		spanSub = res.SubLeak * bits * ports
		spanGate = res.GateLeak * bits * ports
		spanArea = res.Area * bits * ports
		spanDelay = res.Delay
	}

	// Per-port FIFOs.
	q, err := array.New(array.Config{
		Name: "xbar.queue", Tech: cfg.Tech, Periph: cfg.Dev, Cell: cfg.Dev,
		LongChannel: cfg.LongChannel,
		Entries:     cfg.QueueDepth, EntryBits: cfg.Bits,
		CellKind: array.DFF, RdPorts: 1, WrPorts: 1,
	})
	if err != nil {
		return nil, err
	}
	ports := float64(cfg.InPorts + cfg.OutPorts)

	return &Link{
		PAT: power.PAT{
			Energy: power.Energy{
				Read: pat.Energy.Read*0.5 + arb.Energy.Read + spanE +
					q.Energy.Write + q.Energy.Read,
			},
			Static: pat.Static.Add(arb.Static).
				Add(power.Static{Sub: spanSub, Gate: spanGate}).
				Add(q.Static.Scale(ports)),
			Area:  pat.Area + arb.Area + spanArea + q.Area*ports,
			Delay: pat.Delay + arb.Delay + spanDelay,
		},
		Stages: 1,
	}, nil
}
