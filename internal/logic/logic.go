// Package logic implements McPAT's models for random logic and datapath
// macros: instruction decoders, inter-instruction dependency-check logic,
// issue selection (arbitration) logic, and the functional units (integer
// ALU, FPU, multiplier/divider).
//
// Regular logic (decoders, comparators, arbiters) is modeled structurally
// from gate counts and the circuit primitives. Functional units have
// custom layouts that analytical models capture poorly, so - exactly as
// McPAT does - they use empirical models: per-operation energy and area
// calibrated at a 90 nm reference point against published processor data
// (Sun Niagara's shared FPU, Alpha 21264-class integer datapaths) and
// scaled across nodes by capacitance (~F), voltage (V^2), and area (F^2).
package logic

import (
	"fmt"
	"math"

	"mcpat/internal/circuit"
	"mcpat/internal/guard"
	"mcpat/internal/power"
	"mcpat/internal/tech"
)

// FUKind identifies a functional-unit class.
type FUKind int

const (
	// IntALU is a 64-bit integer ALU (add/sub/logic/shift).
	IntALU FUKind = iota
	// FPU is a pipelined floating-point add/multiply unit.
	FPU
	// MulDiv is an integer multiplier/divider.
	MulDiv
)

func (k FUKind) String() string {
	switch k {
	case IntALU:
		return "IntALU"
	case FPU:
		return "FPU"
	case MulDiv:
		return "MulDiv"
	}
	return fmt.Sprintf("FUKind(%d)", int(k))
}

// fuRef holds the 90 nm HP 1.2 V reference calibration of one FU class.
type fuRef struct {
	energy  float64 // J per operation
	area    float64 // m^2
	fo4     float64 // logic depth of one pipeline stage in FO4 units
	leakPct float64 // leakage density factor (fraction of active width leaking)
}

// Reference points: an Alpha-class 64-bit ALU burns ~6 pJ/op at 90 nm and
// occupies ~0.11 mm^2; Niagara's shared FPU class unit ~1.1 mm^2 and
// ~35 pJ/op; a 64-bit multiplier ~0.35 mm^2 and ~20 pJ/op.
var fuRefs = map[FUKind]fuRef{
	IntALU: {energy: 6e-12, area: 0.11e-6, fo4: 22, leakPct: 0.40},
	FPU:    {energy: 35e-12, area: 1.10e-6, fo4: 26, leakPct: 0.35},
	MulDiv: {energy: 20e-12, area: 0.35e-6, fo4: 30, leakPct: 0.35},
}

const (
	refFeature = 90e-9
	refVdd     = 1.2
)

// FunctionalUnit synthesizes one functional unit of the given kind on the
// given technology/device. The returned PAT carries Energy.Read as the
// per-operation energy and Delay as the latency of one pipeline stage.
// An unrecognized kind is reported as a configuration error rather than
// a panic, keeping the model crash-free under bad inputs.
func FunctionalUnit(n *tech.Node, dt tech.DeviceType, longChannel bool, kind FUKind) (power.PAT, error) {
	ref, ok := fuRefs[kind]
	if !ok {
		return power.PAT{}, guard.Configf("logic", "unknown FU kind %v", kind)
	}
	if n == nil {
		return power.PAT{}, guard.Configf("logic", "nil technology node")
	}
	d := n.Device(dt, longChannel)
	fScale := n.Feature / refFeature
	vScale := (d.Vdd / refVdd) * (d.Vdd / refVdd)

	area := ref.area * fScale * fScale
	energy := ref.energy * fScale * vScale
	delay := ref.fo4 * n.FO4(dt, longChannel)

	// Leakage: total transistor width scales as area / feature size; the
	// leaking fraction is the calibration's leakPct.
	totalW := ref.leakPct * area / n.Feature
	sub := d.Ioff(totalW/2, totalW/2) * d.Vdd
	gate := d.Ig(totalW) * d.Vdd

	return power.PAT{
		Energy: power.Energy{Read: energy},
		Static: power.Static{Sub: sub, Gate: gate},
		Area:   area,
		Delay:  delay,
	}, nil
}

// DecoderConfig describes an instruction decoder block.
type DecoderConfig struct {
	Width      int  // instructions decoded per cycle
	OpcodeBits int  // primary opcode field width
	X86        bool // CISC decode adds a microcode ROM and length decode
}

// Decoder models the instruction decode logic: per-lane opcode decoders
// (NAND trees feeding control-signal drivers) plus, for x86, microcode
// sequencing overheads.
func Decoder(n *tech.Node, dt tech.DeviceType, longChannel bool, cfg DecoderConfig) power.PAT {
	if cfg.Width <= 0 {
		cfg.Width = 1
	}
	if cfg.OpcodeBits <= 0 {
		cfg.OpcodeBits = 8
	}
	c := circuit.NewCtx(n, dt, longChannel)
	wmin := n.MinWidthN()

	// One lane: a 2-level predecode of the opcode plus ~80 driven control
	// signals, each a 4x inverter load.
	gatesPerLane := float64(cfg.OpcodeBits)*6 + 80
	cLane := gatesPerLane * c.InvCin(2*wmin)
	ePerInst := c.SwitchE(cLane) * 0.5 // ~half the control signals toggle
	areaPerLane := gatesPerLane * 10 * 8 * n.Feature * n.Feature * 4
	delay := (3 + 0.5*math.Log2(float64(cfg.OpcodeBits))) * c.FO4()

	mult := 1.0
	if cfg.X86 {
		// Length decode + microcode sequencer roughly triples the
		// decode datapath; the uROM itself is modeled by the caller as
		// an array.
		mult = 3.0
	}
	w := float64(cfg.Width)
	totalW := gatesPerLane * 3 * wmin * w * mult
	sub := c.Dev.Ioff(totalW/2, totalW/2) * c.Vdd()
	gate := c.Dev.Ig(totalW) * c.Vdd()

	return power.PAT{
		Energy: power.Energy{Read: ePerInst * mult}, // per decoded instruction
		Static: power.Static{Sub: sub, Gate: gate},
		Area:   areaPerLane * w * mult,
		Delay:  delay,
	}
}

// DependencyCheck models the inter-instruction dependency comparators of a
// superscalar rename/issue stage: each of the W instructions compares its
// two source tags against the destinations of all earlier instructions in
// the group.
func DependencyCheck(n *tech.Node, dt tech.DeviceType, longChannel bool, width, tagBits int) power.PAT {
	if width <= 0 {
		width = 1
	}
	if tagBits <= 0 {
		tagBits = 7
	}
	c := circuit.NewCtx(n, dt, longChannel)
	wmin := n.MinWidthN()

	comparators := width * (width - 1) // 2 sources x (W choose 2) pairs
	if comparators == 0 {
		comparators = 1
	}
	cCmp := float64(tagBits) * 4 * wmin * c.Dev.CgPerW // XOR per bit + match chain
	ePerGroup := float64(comparators) * c.SwitchE(cCmp) * 0.5
	delay := (2 + math.Log2(float64(tagBits))) * 0.5 * c.FO4()

	totalW := float64(comparators) * float64(tagBits) * 6 * wmin
	sub := c.Dev.Ioff(totalW/2, totalW/2) * c.Vdd()
	gate := c.Dev.Ig(totalW) * c.Vdd()
	area := float64(comparators) * float64(tagBits) * 60 * n.Feature * n.Feature

	return power.PAT{
		Energy: power.Energy{Read: ePerGroup}, // per renamed group
		Static: power.Static{Sub: sub, Gate: gate},
		Area:   area,
		Delay:  delay,
	}
}

// Selection models the issue-select arbitration tree that picks ready
// instructions out of an issue window: a tree of 4-input arbiter cells,
// one tree per issue port.
func Selection(n *tech.Node, dt tech.DeviceType, longChannel bool, windowEntries, issueWidth int) power.PAT {
	if windowEntries <= 0 {
		windowEntries = 1
	}
	if issueWidth <= 0 {
		issueWidth = 1
	}
	c := circuit.NewCtx(n, dt, longChannel)
	wmin := n.MinWidthN()

	levels := int(math.Ceil(math.Log(float64(windowEntries)) / math.Log(4)))
	if levels < 1 {
		levels = 1
	}
	cellsPerTree := 0
	for l, cnt := 0, windowEntries; l < levels; l++ {
		cnt = (cnt + 3) / 4
		cellsPerTree += cnt
	}
	// Each arbiter cell ~10 gates; request/grant round trip switches the
	// path once per selection.
	cCell := 10 * 2 * wmin * c.Dev.CgPerW
	ePerSelect := float64(levels) * 4 * c.SwitchE(cCell)
	delay := float64(2*levels) * c.FO4() // request up + grant down

	trees := float64(issueWidth)
	totalW := float64(cellsPerTree) * 10 * 3 * wmin * trees
	sub := c.Dev.Ioff(totalW/2, totalW/2) * c.Vdd()
	gate := c.Dev.Ig(totalW) * c.Vdd()
	area := float64(cellsPerTree) * 10 * 30 * n.Feature * n.Feature * trees

	return power.PAT{
		Energy: power.Energy{Read: ePerSelect}, // per issued instruction
		Static: power.Static{Sub: sub, Gate: gate},
		Area:   area,
		Delay:  delay,
	}
}
