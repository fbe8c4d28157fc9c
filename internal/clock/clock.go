// Package clock models the chip-wide clock distribution network: a global
// H-tree feeding a local grid, with buffer insertion, following McPAT's
// treatment of clocking as a first-class power consumer.
//
// The dominant term is the total switched capacitance: distribution wires,
// repeating buffers, and the clock loads (flip-flops, latches, precharge
// devices) of every block on the chip. Sink capacitance is estimated from
// the clocked-element density per unit area, calibrated so that the clock
// network consumes the published ~20-35% of chip dynamic power on the
// validation targets.
package clock

import (
	"fmt"
	"math"

	"mcpat/internal/circuit"
	"mcpat/internal/power"
	"mcpat/internal/tech"
)

// Config describes a clock network.
type Config struct {
	Tech        *tech.Node
	Dev         tech.DeviceType
	LongChannel bool

	ChipArea float64 // m^2 of clocked logic served
	ClockHz  float64

	// SinkCap optionally gives the total clock load (F). When zero it is
	// estimated from ChipArea via the calibrated density model.
	SinkCap float64

	// GatingFactor is the fraction of the clock network still switching
	// under TDP conditions (clock gating shuts off idle subtrees).
	// Zero selects the default of 0.75.
	GatingFactor float64

	// SinkMult scales the clock-load density (default 1); grid-clocked
	// designs run 2-3x the H-tree baseline.
	SinkMult float64
}

// Network is the synthesized clock distribution.
type Network struct {
	power.PAT

	TotalCap   float64 // switched capacitance (F)
	WireCap    float64
	BufferCap  float64
	SinkCap    float64
	PowerPeak  float64 // W at TDP (with gating factor)
	PowerMax   float64 // W fully ungated
	WireLength float64 // total distribution wire (m)
}

// sinkCapPerArea returns the estimated clock-load density (F/m^2).
// Clocked-element count scales with 1/F^2 while per-element load scales
// with F, so density scales as 1/F; calibrated at 90 nm.
func sinkCapPerArea(n *tech.Node) float64 {
	const ref = 2e-5 // F/m^2 at 90 nm (~20 pF/mm^2)
	return ref * (90e-9 / n.Feature)
}

// New synthesizes the clock network.
func New(cfg Config) (*Network, error) {
	if cfg.Tech == nil {
		return nil, fmt.Errorf("clock: technology node required")
	}
	if cfg.ChipArea <= 0 || cfg.ClockHz <= 0 {
		return nil, fmt.Errorf("clock: area (%g) and clock (%g) must be positive", cfg.ChipArea, cfg.ClockHz)
	}
	if cfg.GatingFactor <= 0 {
		cfg.GatingFactor = 0.75
	}
	c := circuit.NewCtx(cfg.Tech, cfg.Dev, cfg.LongChannel)
	n := cfg.Tech

	side := math.Sqrt(cfg.ChipArea)

	// H-tree: total wire length of a k-level H-tree over a side-s square
	// approaches 3*s; the local grid adds wires at gridPitch spacing.
	const gridPitch = 300e-6
	htreeLen := 3 * side
	gridLen := 2 * cfg.ChipArea / gridPitch
	wireLen := htreeLen + gridLen

	wGlobal := n.Wire(tech.Aggressive, tech.Global)
	wireCap := wireLen * wGlobal.CapPerM

	sinkMult := cfg.SinkMult
	if sinkMult <= 0 {
		sinkMult = 1
	}
	sink := cfg.SinkCap
	if sink == 0 {
		sink = sinkCapPerArea(n) * cfg.ChipArea * sinkMult
	}

	// Buffers: repeater insertion along the tree and grid; buffer input
	// cap roughly 30% of the wire+sink load they drive.
	bufCap := 0.3 * (wireCap + sink)

	total := wireCap + sink + bufCap
	vdd := c.Vdd()
	// The clock toggles once per cycle on each node (energy C*V^2*f for
	// a full charge/discharge per cycle).
	pMax := total * vdd * vdd * cfg.ClockHz
	pPeak := pMax * cfg.GatingFactor

	// Buffer leakage: total buffer width from capacitance.
	bufW := bufCap / c.Dev.CgPerW
	sub := c.Dev.Ioff(bufW/2, bufW/2) * vdd
	gate := c.Dev.Ig(bufW) * vdd

	// PLL + global drivers fixed overhead area; buffers dominate.
	area := bufW*4*n.Feature*2 + 0.05e-6

	return &Network{
		PAT: power.PAT{
			// Energy.Read is per-cycle energy, so that activity =
			// ClockHz reproduces PowerPeak/gating semantics.
			Energy: power.Energy{Read: total * vdd * vdd * cfg.GatingFactor},
			Static: power.Static{Sub: sub, Gate: gate},
			Area:   area,
			Delay:  0,
		},
		TotalCap:   total,
		WireCap:    wireCap,
		BufferCap:  bufCap,
		SinkCap:    sink,
		PowerPeak:  pPeak,
		PowerMax:   pMax,
		WireLength: wireLen,
	}, nil
}
