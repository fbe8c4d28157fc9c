// Package chip assembles McPAT's full multicore processor model: cores,
// shared cache levels, the on-chip interconnect (shared bus, flat
// crossbar, or 2D-mesh NoC), memory controllers, I/O controllers (NIU,
// PCIe), and the chip-wide clock network, producing hierarchical
// power/area reports for both TDP (peak) and runtime conditions.
package chip

import (
	"fmt"

	"mcpat/internal/cache"
	"mcpat/internal/clock"
	"mcpat/internal/core"
	"mcpat/internal/guard"
	"mcpat/internal/interconnect"
	"mcpat/internal/mc"
	"mcpat/internal/power"
	"mcpat/internal/tech"
)

// InterconnectKind selects the chip-level fabric.
type InterconnectKind int

const (
	// NoneIC means cores connect to the shared cache directly (single
	// core or private hierarchies).
	NoneIC InterconnectKind = iota
	// Bus is a shared multi-drop bus.
	Bus
	// Crossbar is a flat crossbar (Niagara PCX/CPX style).
	Crossbar
	// Mesh is a 2D-mesh NoC with one router per core/tile.
	Mesh
	// Ring is a unidirectional ring of 3-port routers, one station per
	// core plus one per L2 bank.
	Ring
)

func (k InterconnectKind) String() string {
	switch k {
	case NoneIC:
		return "none"
	case Bus:
		return "bus"
	case Crossbar:
		return "crossbar"
	case Mesh:
		return "mesh"
	case Ring:
		return "ring"
	}
	return fmt.Sprintf("InterconnectKind(%d)", int(k))
}

// ParseInterconnect maps a fabric name, as String writes it, to its
// kind.
func ParseInterconnect(name string) (InterconnectKind, error) {
	for k := NoneIC; k <= Ring; k++ {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown fabric %q (none|bus|crossbar|mesh|ring)", name)
}

// NoCSpec configures the chip fabric.
type NoCSpec struct {
	Kind            InterconnectKind
	FlitBits        int // link/bus width
	MeshX, MeshY    int // mesh topology (Kind == Mesh)
	VirtualChannels int
	BuffersPerVC    int

	// ClusterSize groups cores into clusters of this many cores; each
	// cluster shares one local bus (to its L2 slice) and one mesh
	// router, so MeshX*MeshY should equal NumCores/ClusterSize. 0 or 1
	// means one router per core with no local bus - the hierarchical
	// interconnect organization of the manycore case study.
	ClusterSize int
}

// Config describes a full processor chip.
type Config struct {
	Name string

	NM          float64 // feature size in nanometers
	Dev         tech.DeviceType
	LongChannel bool
	// Temperature is the junction temperature reports are scored at (K);
	// 0 keeps tech.ReferenceTempK (360 K). It is a Score-time input: it
	// retunes leakage on the finished report and never participates in
	// synthesis, so chips differing only in temperature share every
	// synthesized part (see Processor.SetScoreTemperature).
	Temperature float64
	ClockHz     float64
	Vdd         float64 // V; 0 keeps the roadmap voltage of the device class

	// WireProjection selects the interconnect scaling assumption for the
	// chip-level fabric links (aggressive by default, the McPAT input).
	WireProjection tech.Projection

	NumCores int
	Core     core.Config // template; Tech/Dev/Clock are filled in

	// CorePeak optionally overrides the TDP activity vector used for the
	// cores (validation descriptors use this to reproduce vendor TDP
	// conditions).
	CorePeak *core.Activity

	L2 *cache.Config // shared L2 (nil = none); Tech/TargetHz filled in
	L3 *cache.Config

	// L2PeakDuty is the TDP access rate per L2 bank in accesses/cycle
	// (default 1.0); likewise for L3 (default 0.4). The validation
	// descriptors are calibrated against these defaults (see the
	// regression test pinning them).
	L2PeakDuty float64
	L3PeakDuty float64

	// SharedFPUs adds chip-level floating point units outside the cores
	// (Niagara's single shared FPU).
	SharedFPUs int

	NoC NoCSpec

	MC   *mc.Config
	NIU  *mc.NIUConfig
	PCIe *mc.PCIeConfig

	// MCPeakUtil is the TDP utilization of the memory interface
	// bandwidth (default 0.8); I/O controllers run at full rate at TDP.
	MCPeakUtil float64

	// ClockGating is the fraction of the clock network active at TDP
	// (default 0.75).
	ClockGating float64

	// ClockSinkMult scales the clock-load density estimate (default 1).
	// Grid-clocked designs (Alpha EV6/EV7 class) run 2-3x the H-tree
	// baseline.
	ClockSinkMult float64

	// OtherArea accounts for known-but-unmodeled blocks (test logic,
	// fuses, analog, I/O pad ring beyond the modeled controllers), in
	// m^2. Validation descriptors set it from die photos; it carries no
	// power.
	OtherArea float64
}

// Stats carries runtime statistics from a performance simulator.
type Stats struct {
	// CoreRun is the average per-core activity vector (events/cycle).
	CoreRun core.Activity

	// Shared cache accesses per second, chip-wide.
	L2Reads, L2Writes float64
	L3Reads, L3Writes float64

	// NoCFlits is flits/s per router for meshes, or transfers/s for
	// bus/crossbar fabrics.
	NoCFlits float64

	// ClusterBusTransfers is transfers/s per intra-cluster bus (clustered
	// mesh fabrics only).
	ClusterBusTransfers float64

	// MCAccesses is 64-byte memory transactions per second.
	MCAccesses float64

	NIUBitsPerSec  float64
	PCIeBitsPerSec float64

	// FPOpsPerSec drives the shared FPUs.
	FPOpsPerSec float64
}

// Processor is a synthesized chip.
type Processor struct {
	Cfg  Config
	Tech *tech.Node

	CoreModel *core.Core
	L2, L3    *cache.Cache

	router     *interconnect.Router
	link       *interconnect.Link // mesh link, bus, or crossbar
	clusterBus *interconnect.Link // intra-cluster bus (clustered meshes)
	mcCtl      *mc.Controller
	clk        *clock.Network
	// The shared FPUs (one block of SharedFPUs units), the NIU and the
	// PCIe controller (nil: none).
	fpu, niu, pcie *power.PAT

	corePeak core.Activity

	// reportPath is the guard path Score faults are reported at,
	// "<name>.Report", built once so a Score pass allocates no string.
	reportPath string

	// Score-time operating point. Synthesis is temperature-invariant
	// (parts are solved at tech.ReferenceTempK and the tech fingerprint
	// has no temperature), so the operating temperature and
	// any DVFS derating are applied as cheap multiplicative retunes over
	// the scored report instead of participating in synthesis. Mutating
	// these between Score passes is how the thermal/DVFS feedback loop
	// runs a whole transient trace against one synthesized chip.
	scoreTempK float64 // junction temperature reports are scored at (K)
	leakScale  float64 // subthreshold-leakage multiplier vs the reference temperature
	freqFrac   float64 // score-time frequency as a fraction of Cfg.ClockHz
	vddFrac    float64 // score-time supply as a fraction of the synthesis Vdd
}

// New synthesizes the processor by walking the subsystem registry in
// order (see assemble.go); subsystem synthesis is memoized process-wide,
// so a chip that shares a subsystem configuration with a previously
// built one reuses the synthesized model. New is a panic-containment
// boundary: a fault anywhere in the model internals surfaces as an
// ErrInternal, and malformed configurations surface as ErrConfig - never
// as a crash of the host process. On any error the processor is nil.
func New(cfg Config) (_ *Processor, err error) {
	path := cfg.Name
	if path == "" {
		path = "chip"
	}
	defer guard.Recover(&err, path)
	if cfg.NumCores <= 0 {
		return nil, guard.Configf(path, "NumCores must be positive")
	}
	if cfg.ClockHz <= 0 {
		return nil, guard.Configf(path, "clock frequency required")
	}
	node, err := tech.ByFeature(cfg.NM)
	if err != nil {
		return nil, guard.At(err, path)
	}
	// Temperature deliberately does NOT touch the node: synthesis runs at
	// the reference temperature so synthesized parts are shared across
	// operating temperatures, and the configured temperature becomes the
	// initial Score-time retune (see SetScoreTemperature).
	if cfg.Vdd > 0 {
		node.OverrideVdd(cfg.Dev, cfg.Vdd)
	}
	if cfg.L2PeakDuty <= 0 {
		cfg.L2PeakDuty = 1.0
	}
	if cfg.L3PeakDuty <= 0 {
		cfg.L3PeakDuty = 0.4
	}
	if cfg.MCPeakUtil <= 0 {
		cfg.MCPeakUtil = 0.8
	}
	if cfg.ClockGating <= 0 {
		cfg.ClockGating = 0.75
	}

	p := &Processor{Cfg: cfg, Tech: node, reportPath: path + ".Report", freqFrac: 1, vddFrac: 1}
	p.scoreTempK = tech.ReferenceTempK
	p.leakScale = 1
	if cfg.Temperature > 0 {
		p.scoreTempK = cfg.Temperature
		p.leakScale = tech.LeakScaleAt(cfg.Temperature)
	}
	b := &builder{p: p, node: node, path: path}
	if err := assemble(b); err != nil {
		return nil, err
	}
	return p, nil
}

// NewWithWorkers is New; workers changes nothing.
//
// Deprecated: chip assembly has one serial path. Use New.
func NewWithWorkers(cfg Config, workers int) (*Processor, error) { return New(cfg) }

func banksOf(c *cache.Config) int {
	if c == nil {
		return 0
	}
	if c.Banks <= 0 {
		return 1
	}
	return c.Banks
}

// MeshDims returns near-square power-of-two mesh dimensions for n nodes.
func MeshDims(n int) (int, int) {
	x, y := 1, 1
	for x*y < n {
		if x <= y {
			x *= 2
		} else {
			y *= 2
		}
	}
	return x, y
}

// linkCount returns the number of bidirectional links in an x-by-y mesh.
func linkCount(x, y int) int {
	if x <= 0 || y <= 0 {
		return 0
	}
	return x*(y-1) + y*(x-1)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
