// Package mc implements McPAT's off-chip interface models: the memory
// controller (front-end engine with request/read/write buffers, the
// transaction-processing back end, and the PHY), the network interface
// unit (NIU), and the PCIe controller.
//
// Buffering structures are synthesized with the array model; the
// transaction engine and the mixed-signal PHY/SerDes blocks use empirical
// per-bandwidth energy coefficients calibrated at 90 nm (the same
// methodology McPAT applies to these hard-to-model blocks).
package mc

import (
	"fmt"

	"mcpat/internal/array"
	"mcpat/internal/power"
	"mcpat/internal/tech"
)

// Config describes one memory-controller channel group.
type Config struct {
	Tech        *tech.Node
	Dev         tech.DeviceType
	LongChannel bool

	Channels      int     // independent memory channels
	DataBusBits   int     // per channel (64 for DDRx)
	PeakBandwidth float64 // bytes/s aggregate across channels

	// Buffer depths per channel (zero selects McPAT-style defaults).
	RequestDepth int // request window entries
	ReadDepth    int // read-return buffer entries
	WriteDepth   int // write buffer entries

	LVDS bool // low-voltage differential PHY (DDR) vs full-swing

	// PHYPJPerBit overrides the PHY energy coefficient (J/bit at the
	// 90 nm reference point); zero selects the LVDS/full-swing default.
	// Serial memory interfaces (FB-DIMM, RDRAM) sit between the two.
	PHYPJPerBit float64
}

// Controller is a synthesized memory controller. Energy.Read/Write are
// per-64-byte-transaction energies (front end + transaction engine; PHY
// energy is folded in per transferred bit).
type Controller struct {
	power.PAT

	FrontEnd power.PAT // buffers and scheduling
	Backend  power.PAT // transaction engine
	PHY      power.PAT // per-bit I/O drivers and clocking

	PeakPower float64 // W at 100% bandwidth utilization
	cfg       Config
}

// Per-bit energy coefficients at the 90 nm / 1.2 V reference point.
const (
	refFeature = 90e-9
	refVdd     = 1.2
	// Transaction engine: scheduling, ECC, command sequencing.
	backendPJPerBit = 3.0e-12
	// PHY: on-die termination, output drivers, DLL. Full-swing pads are
	// ~3x more expensive than LVDS.
	phyPJPerBitLVDS = 18.0e-12
	phyPJPerBitFS   = 100.0e-12
	txnBytes        = 64
)

// scaleEnergy applies McPAT's C*V^2 scaling from the 90 nm reference:
// switched capacitance tracks feature size, energy tracks Vdd squared.
func scaleEnergy(n *tech.Node, d tech.Device, e float64) float64 {
	fScale := n.Feature / refFeature
	vScale := (d.Vdd / refVdd) * (d.Vdd / refVdd)
	return e * fScale * vScale
}

// New synthesizes the memory controller.
func New(cfg Config) (*Controller, error) {
	if cfg.Tech == nil {
		return nil, fmt.Errorf("mc: technology node required")
	}
	if cfg.Channels <= 0 {
		cfg.Channels = 1
	}
	if cfg.DataBusBits <= 0 {
		cfg.DataBusBits = 64
	}
	if cfg.RequestDepth <= 0 {
		cfg.RequestDepth = 32
	}
	if cfg.ReadDepth <= 0 {
		cfg.ReadDepth = 32
	}
	if cfg.WriteDepth <= 0 {
		cfg.WriteDepth = 32
	}
	n := cfg.Tech
	d := n.Device(cfg.Dev, cfg.LongChannel)

	mk := func(name string, entries, bits int) (*array.Result, error) {
		return array.New(array.Config{
			Name: name, Tech: n, Periph: cfg.Dev, Cell: cfg.Dev,
			LongChannel: cfg.LongChannel,
			Entries:     entries, EntryBits: bits,
			RdPorts: 1, WrPorts: 1,
		})
	}
	reqBuf, err := mk("mc.request", cfg.RequestDepth, 64)
	if err != nil {
		return nil, err
	}
	rdBuf, err := mk("mc.read", cfg.ReadDepth, txnBytes*8)
	if err != nil {
		return nil, err
	}
	wrBuf, err := mk("mc.write", cfg.WriteDepth, txnBytes*8)
	if err != nil {
		return nil, err
	}

	ch := float64(cfg.Channels)
	fe := power.PAT{
		Energy: power.Energy{
			Read:  reqBuf.Energy.Write + reqBuf.Energy.Read + rdBuf.Energy.Write + rdBuf.Energy.Read,
			Write: reqBuf.Energy.Write + reqBuf.Energy.Read + wrBuf.Energy.Write + wrBuf.Energy.Read,
		},
		Static: reqBuf.Static.Add(rdBuf.Static).Add(wrBuf.Static).Scale(ch),
		Area:   (reqBuf.Area + rdBuf.Area + wrBuf.Area) * ch,
	}

	bitsPerTxn := float64(txnBytes * 8)
	eBackend := scaleEnergy(n, d, backendPJPerBit) * bitsPerTxn
	be := power.PAT{
		Energy: power.Energy{Read: eBackend, Write: eBackend},
		// Backend logic leakage: modeled as a logic block of ~50k gates
		// per channel.
		Static: logicLeak(n, d, 50e3*ch),
		Area:   0.15e-6 * (n.Feature / refFeature) * (n.Feature / refFeature) * ch,
	}

	phyPJ := phyPJPerBitFS
	if cfg.LVDS {
		phyPJ = phyPJPerBitLVDS
	}
	if cfg.PHYPJPerBit > 0 {
		phyPJ = cfg.PHYPJPerBit
	}
	ePhy := scaleEnergy(n, d, phyPJ) * bitsPerTxn
	phy := power.PAT{
		Energy: power.Energy{Read: ePhy, Write: ePhy},
		Static: logicLeak(n, d, 20e3*ch),
		// Pad-limited: I/O cells, termination, and DLLs dominate; the PHY
		// of one 64-bit channel occupies several mm^2 nearly independent
		// of logic scaling.
		Area: 2.4e-6 * float64(cfg.DataBusBits) / 64 * ch * (n.Feature / refFeature),
	}

	total := power.PAT{
		Energy: power.Energy{
			Read:  fe.Energy.Read + be.Energy.Read + phy.Energy.Read,
			Write: fe.Energy.Write + be.Energy.Write + phy.Energy.Write,
		},
		Static: fe.Static.Add(be.Static).Add(phy.Static),
		Area:   fe.Area + be.Area + phy.Area,
		Delay:  reqBuf.AccessTime,
	}

	peak := 0.0
	if cfg.PeakBandwidth > 0 {
		txnPerSec := cfg.PeakBandwidth / txnBytes
		peak = total.Energy.Read*txnPerSec + total.Static.Total()
	}

	return &Controller{
		PAT:       total,
		FrontEnd:  fe,
		Backend:   be,
		PHY:       phy,
		PeakPower: peak,
		cfg:       cfg,
	}, nil
}

// logicLeak estimates leakage of a random-logic block of the given gate
// count: each gate ~6 minimum-width transistor widths.
func logicLeak(n *tech.Node, d tech.Device, gates float64) power.Static {
	w := gates * 6 * n.MinWidthN()
	return power.Static{
		Sub:  d.Ioff(w/2, w/2) * d.Vdd,
		Gate: d.Ig(w) * d.Vdd,
	}
}

// NIUConfig describes an on-die network interface unit.
type NIUConfig struct {
	Tech        *tech.Node
	Dev         tech.DeviceType
	LongChannel bool
	Bandwidth   float64 // bits/s per direction (e.g. 10e9 for 10GbE)
	Count       int

	// PJPerBit overrides the SerDes energy coefficient (J/bit at 90 nm);
	// zero selects the default.
	PJPerBit float64
}

// NewNIU models MAC + packet DMA logic plus SerDes lanes. Calibrated so a
// 10 GbE NIU at 65 nm burns ~1.8 W at full rate.
func NewNIU(cfg NIUConfig) (power.PAT, error) {
	if cfg.Tech == nil {
		return power.PAT{}, fmt.Errorf("mc: NIU requires a technology node")
	}
	if cfg.Count <= 0 {
		cfg.Count = 1
	}
	n := cfg.Tech
	d := n.Device(cfg.Dev, cfg.LongChannel)
	const serdesPJPerBit = 80e-12 // at 90nm reference (SerDes dominates)
	pj := cfg.PJPerBit
	if pj <= 0 {
		pj = serdesPJPerBit
	}
	e := scaleEnergy(n, d, pj)
	cnt := float64(cfg.Count)
	return power.PAT{
		// Energy per bit; activity supplies the bit rate.
		Energy: power.Energy{Read: e},
		Static: logicLeak(n, d, 150e3*cnt),
		Area:   1.2e-6 * cnt * (n.Feature / refFeature),
	}, nil
}

// PCIeConfig describes a PCIe controller + SerDes lanes.
type PCIeConfig struct {
	Tech        *tech.Node
	Dev         tech.DeviceType
	LongChannel bool
	Lanes       int
	GbpsPerLane float64 // 2.5 for Gen1, 5 for Gen2
}

// NewPCIe models the PCIe controller. Calibrated so a Gen1 x8 port at
// 65 nm burns ~2 W at full rate.
func NewPCIe(cfg PCIeConfig) (power.PAT, error) {
	if cfg.Tech == nil {
		return power.PAT{}, fmt.Errorf("mc: PCIe requires a technology node")
	}
	if cfg.Lanes <= 0 {
		cfg.Lanes = 8
	}
	if cfg.GbpsPerLane <= 0 {
		cfg.GbpsPerLane = 2.5
	}
	n := cfg.Tech
	d := n.Device(cfg.Dev, cfg.LongChannel)
	const pciePJPerBit = 90e-12 // at 90nm reference, incl. 8b/10b + SerDes
	e := scaleEnergy(n, d, pciePJPerBit)
	lanes := float64(cfg.Lanes)
	return power.PAT{
		Energy: power.Energy{Read: e}, // per bit
		Static: logicLeak(n, d, 30e3*lanes),
		Area:   0.35e-6 * lanes * (n.Feature / refFeature),
	}, nil
}
