// Package tech provides the technology-level models of McPAT: MOSFET device
// parameters for the three ITRS device classes (HP, LSTP, LOP) at process
// nodes from 180 nm down to 22 nm, temperature-dependent leakage, the
// optional long-channel device variant used to trade frequency for static
// power, and interconnect (wire) parameters for the aggressive and
// conservative projections.
//
// All quantities are SI: meters, seconds, volts, amperes, farads, ohms.
// Per-width device quantities use A/m and F/m (1 uA/um == 1 A/m,
// 1 fF/um == 1e-9 F/m).
package tech

import (
	"fmt"
	"math"
	"sort"

	"mcpat/internal/guard"
)

// DeviceType selects one of the three ITRS transistor classes McPAT models.
type DeviceType int

const (
	// HP is the high-performance device: lowest delay, highest leakage.
	HP DeviceType = iota
	// LSTP is the low-standby-power device: thick oxide and high Vth give
	// orders of magnitude less leakage at roughly 2-2.5x the delay.
	LSTP
	// LOP is the low-operating-power device: reduced Vdd targets dynamic
	// power; delay and leakage sit between HP and LSTP.
	LOP
	numDeviceTypes
)

func (d DeviceType) String() string {
	switch d {
	case HP:
		return "HP"
	case LSTP:
		return "LSTP"
	case LOP:
		return "LOP"
	}
	return fmt.Sprintf("DeviceType(%d)", int(d))
}

// Projection selects the interconnect scaling assumption.
type Projection int

const (
	// Aggressive assumes optimistic ITRS wire scaling: low-k dielectrics
	// and thin barriers.
	Aggressive Projection = iota
	// Conservative assumes higher-k dielectrics, thicker barriers, and
	// relaxed pitches, as in CACTI's conservative projection.
	Conservative
	numProjections
)

func (p Projection) String() string {
	if p == Aggressive {
		return "aggressive"
	}
	return "conservative"
}

// WireType selects a metal layer class.
type WireType int

const (
	// Local wires run at minimum pitch on the lowest metal layers.
	Local WireType = iota
	// SemiGlobal wires run at twice minimum pitch on intermediate layers.
	SemiGlobal
	// Global wires run at wide pitch on the top layers and are used for
	// cross-chip routes, clock trunks, and NoC links.
	Global
	numWireTypes
)

func (w WireType) String() string {
	switch w {
	case Local:
		return "local"
	case SemiGlobal:
		return "semi-global"
	case Global:
		return "global"
	}
	return fmt.Sprintf("WireType(%d)", int(w))
}

// Device holds the per-width electrical parameters of one transistor class
// at one node. Leakage currents are specified at 300 K; use the Ioff and
// Ig methods for values at ReferenceTempK.
type Device struct {
	Vdd float64 // supply voltage (V)
	Vth float64 // threshold voltage (V)

	IonN  float64 // NMOS saturation drive current per width (A/m)
	IonP  float64 // PMOS saturation drive current per width (A/m)
	IoffN float64 // NMOS subthreshold leakage per width at 300 K (A/m)
	IoffP float64 // PMOS subthreshold leakage per width at 300 K (A/m)
	IgN   float64 // gate leakage per width (A/m), weak temperature dependence

	CgPerW float64 // gate capacitance per width, incl. overlap+fringe (F/m)
	CjPerW float64 // source/drain junction capacitance per width (F/m)

	Leff float64 // effective channel length (m)

	// LongChannel indicates the long-channel variant: channel length is
	// doubled, cutting subthreshold leakage ~10x at ~10% drive loss.
	LongChannel bool
}

// rEffFactor converts Vdd/Ion into an effective switching resistance. It
// absorbs the difference between the saturation drive current and the
// average current over a full output transition (PMOS/NMOS asymmetry,
// velocity saturation). Calibrated so the computed FO4 delay matches the
// ~0.36 ps/nm rule of thumb for HP devices.
const rEffFactor = 2.6

// subthresholdSlopeK is the temperature coefficient of subthreshold
// leakage: Ioff scales as exp((T-300)/subthresholdSlopeK), roughly a 2x
// increase per 25 K, matching MASTAR-style fits.
const subthresholdSlopeK = 34.0

// ReferenceTempK is the junction temperature (K) at which synthesis
// solves subthreshold leakage, McPAT's default operating point.
// Operating temperature is a Score-time input: synthesized parts are
// temperature-invariant and callers retune them with the multiplier
// from LeakScaleAt (see chip.Processor.SetScoreTemperature), so a
// thermal feedback loop can change temperature every interval against
// one synthesis.
const ReferenceTempK = 360.0

// refLeakScale is the subthreshold leakage multiplier at ReferenceTempK
// relative to the 300 K device tables.
var refLeakScale = math.Exp((ReferenceTempK - 300) / subthresholdSlopeK)

// REqN returns the effective drive resistance of an NMOS transistor of
// width w (ohms).
func (d Device) REqN(w float64) float64 { return rEffFactor * d.Vdd / (d.IonN * w) }

// Ioff returns the average subthreshold leakage current (A) of a gate with
// total NMOS width wn and PMOS width wp at ReferenceTempK, assuming half
// the devices leak at any time (standard stacked-gate average).
func (d Device) Ioff(wn, wp float64) float64 {
	return 0.5 * (wn*d.IoffN + wp*d.IoffP) * refLeakScale
}

// Ig returns the gate leakage current (A) of total gate width w. Gate
// leakage is only weakly temperature dependent and is treated as constant.
func (d Device) Ig(w float64) float64 { return w * d.IgN }

// Wire holds distributed RC parameters for one metal class.
type Wire struct {
	ResPerM float64 // resistance per length (ohm/m)
	CapPerM float64 // total capacitance per length, ground+coupling (F/m)
	Pitch   float64 // wire pitch (m)
}

// Node bundles everything McPAT needs to know about one process node.
type Node struct {
	Name    string  // e.g. "90nm"
	Feature float64 // feature size F (m)

	devices [numDeviceTypes]Device
	wires   [numProjections][numWireTypes]Wire

	// SRAMCellArea is the area of one 6T SRAM bit cell (m^2).
	SRAMCellArea float64
	// CAMCellArea is the area of one 10T CAM bit cell (m^2).
	CAMCellArea float64
	// DFFCellArea is the area of one flip-flop based storage bit (m^2).
	DFFCellArea float64
	// SRAMCellAspect is height/width of the SRAM cell.
	SRAMCellAspect float64

	// SRAMCellNMOSWidth and SRAMCellPMOSWidth are the summed leaking
	// widths per 6T cell used for cell leakage (m).
	SRAMCellNMOSWidth float64
	SRAMCellPMOSWidth float64
}

// Device returns the parameters of the requested transistor class. If
// longChannel is true the returned device is the long-channel variant:
// ~10x less subthreshold leakage, ~10% less drive, ~10% more gate cap.
func (n *Node) Device(t DeviceType, longChannel bool) Device {
	d := n.devices[t]
	if longChannel {
		d.IoffN *= 0.1
		d.IoffP *= 0.1
		d.IonN *= 0.9
		d.IonP *= 0.9
		d.CgPerW *= 1.1
		d.Leff *= 2
		d.LongChannel = true
	}
	return d
}

// Wire returns the RC parameters for the given projection and metal class.
func (n *Node) Wire(p Projection, t WireType) Wire { return n.wires[p][t] }

// OverrideVdd retunes the given device class to run at supply voltage v,
// the way McPAT honors a user-specified Vdd: drive current scales roughly
// linearly with overdrive, leakage currents and capacitances are kept (a
// first-order treatment consistent with McPAT's voltage knob). Nodes
// returned by ByFeature are private copies, so mutation is safe.
func (n *Node) OverrideVdd(t DeviceType, v float64) {
	if v <= 0 {
		return
	}
	d := &n.devices[t]
	scale := v / d.Vdd
	d.IonN *= scale
	d.IonP *= scale
	d.Vdd = v
}

// MinWidthN returns the minimum NMOS transistor width used by the circuit
// models (3 F, the standard CACTI/McPAT convention).
func (n *Node) MinWidthN() float64 { return 3 * n.Feature }

// MinWidthP returns the minimum PMOS width (2x NMOS for balanced drive).
func (n *Node) MinWidthP() float64 { return 2 * n.MinWidthN() }

// FO4 returns the fanout-of-4 inverter delay (s) of the given device
// class, the basic unit in which logic depth is expressed.
func (n *Node) FO4(t DeviceType, longChannel bool) float64 {
	d := n.Device(t, longChannel)
	wn := n.MinWidthN()
	wp := n.MinWidthP()
	cin := (wn + wp) * d.CgPerW
	cself := (wn + wp) * d.CjPerW
	// PMOS is sized 2x, so pull-up and pull-down resistances match and we
	// can use the NMOS drive resistance for both transitions.
	r := d.REqN(wn)
	return 0.69 * r * (4*cin + cself)
}

// LeakScaleAt returns the multiplier that converts synthesized
// subthreshold leakage (solved at ReferenceTempK) into the leakage at
// operating temperature tempK. Subthreshold leakage is the only
// temperature-dependent quantity in the model and temperature enters it
// as a pure exponential factor, so retuning a synthesized part is one
// multiply per leakage column instead of a re-synthesis. tempK <= 0
// selects the reference temperature. At the reference the scale is
// exactly 1.0, which keeps default-temperature reports bit-identical to
// an unretuned Score.
func LeakScaleAt(tempK float64) float64 {
	if tempK <= 0 || tempK == ReferenceTempK {
		return 1
	}
	return math.Exp((tempK - ReferenceTempK) / subthresholdSlopeK)
}

// Nodes returns the list of natively supported feature sizes in nm,
// ascending.
func Nodes() []float64 {
	out := make([]float64, 0, len(rawNodes))
	for nm := range rawNodes {
		out = append(out, nm)
	}
	sort.Float64s(out)
	return out
}

// ByFeature returns the technology node for the given feature size in
// nanometers. Exact table entries are returned directly; sizes between two
// table entries are interpolated in log space (the standard MASTAR
// treatment); sizes outside [22, 180] are an error.
func ByFeature(nm float64) (*Node, error) {
	// The NaN comparison traps: NaN fails both range tests below, so it
	// must be rejected explicitly or it would interpolate to garbage.
	if math.IsNaN(nm) || math.IsInf(nm, 0) || nm < 22 || nm > 180 {
		return nil, guard.Configf("tech",
			"feature size %.0f nm outside supported range [22, 180]", nm)
	}
	if raw, ok := rawNodes[nm]; ok {
		n := buildNode(nm, raw)
		return n, nil
	}
	keys := Nodes()
	// Find bracketing nodes.
	lo, hi := keys[0], keys[len(keys)-1]
	for _, k := range keys {
		if k <= nm && k > lo {
			lo = k
		}
		if k >= nm && k < hi {
			hi = k
		}
	}
	if lo > nm {
		lo = keys[0]
	}
	if hi < nm {
		hi = keys[len(keys)-1]
	}
	a := buildNode(lo, rawNodes[lo])
	b := buildNode(hi, rawNodes[hi])
	t := (math.Log(nm) - math.Log(lo)) / (math.Log(hi) - math.Log(lo))
	n := interpolate(a, b, t)
	n.Name = fmt.Sprintf("%.0fnm", nm)
	n.Feature = nm * 1e-9
	return n, nil
}

func lerp(a, b, t float64) float64 { return a + (b-a)*t }

// geomLerp interpolates in log space, appropriate for quantities spanning
// decades (leakage currents, cell areas).
func geomLerp(a, b, t float64) float64 {
	if a <= 0 || b <= 0 {
		return lerp(a, b, t)
	}
	return math.Exp(lerp(math.Log(a), math.Log(b), t))
}

func interpolate(a, b *Node, t float64) *Node {
	n := &Node{
		SRAMCellArea:      geomLerp(a.SRAMCellArea, b.SRAMCellArea, t),
		CAMCellArea:       geomLerp(a.CAMCellArea, b.CAMCellArea, t),
		DFFCellArea:       geomLerp(a.DFFCellArea, b.DFFCellArea, t),
		SRAMCellAspect:    lerp(a.SRAMCellAspect, b.SRAMCellAspect, t),
		SRAMCellNMOSWidth: geomLerp(a.SRAMCellNMOSWidth, b.SRAMCellNMOSWidth, t),
		SRAMCellPMOSWidth: geomLerp(a.SRAMCellPMOSWidth, b.SRAMCellPMOSWidth, t),
	}
	for i := range n.devices {
		da, db := a.devices[i], b.devices[i]
		n.devices[i] = Device{
			Vdd:    lerp(da.Vdd, db.Vdd, t),
			Vth:    lerp(da.Vth, db.Vth, t),
			IonN:   geomLerp(da.IonN, db.IonN, t),
			IonP:   geomLerp(da.IonP, db.IonP, t),
			IoffN:  geomLerp(da.IoffN, db.IoffN, t),
			IoffP:  geomLerp(da.IoffP, db.IoffP, t),
			IgN:    geomLerp(da.IgN, db.IgN, t),
			CgPerW: geomLerp(da.CgPerW, db.CgPerW, t),
			CjPerW: geomLerp(da.CjPerW, db.CjPerW, t),
			Leff:   geomLerp(da.Leff, db.Leff, t),
		}
	}
	for p := range n.wires {
		for w := range n.wires[p] {
			wa, wb := a.wires[p][w], b.wires[p][w]
			n.wires[p][w] = Wire{
				ResPerM: geomLerp(wa.ResPerM, wb.ResPerM, t),
				CapPerM: geomLerp(wa.CapPerM, wb.CapPerM, t),
				Pitch:   geomLerp(wa.Pitch, wb.Pitch, t),
			}
		}
	}
	return n
}
