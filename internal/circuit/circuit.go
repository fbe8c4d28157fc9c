// Package circuit implements McPAT's circuit-level building blocks: CMOS
// gate delay (Horowitz approximation and Elmore RC), logical-effort buffer
// chains, optimally repeated global wires (a length-independent Repeater
// design that Repeater.Wire places at each length), flip-flops, and
// switching-energy helpers. All architecture-level models reduce to
// compositions of these primitives plus the memory arrays in package
// array.
package circuit

import (
	"math"

	"mcpat/internal/tech"
)

// Ctx binds a technology node to one device class so circuit formulas can
// be written against a single parameter set.
type Ctx struct {
	Node *tech.Node
	Dev  tech.Device
}

// NewCtx builds a circuit context for the given node/device class.
func NewCtx(n *tech.Node, dt tech.DeviceType, longChannel bool) Ctx {
	return Ctx{Node: n, Dev: n.Device(dt, longChannel)}
}

// Vdd returns the context supply voltage.
func (c *Ctx) Vdd() float64 { return c.Dev.Vdd }

// SwitchE returns the energy drawn from the supply to switch capacitance
// cap through a full output transition: 1/2 C V^2. Callers account for the
// number of transitions per operation.
func (c *Ctx) SwitchE(cap float64) float64 { return 0.5 * cap * c.Dev.Vdd * c.Dev.Vdd }

// FullSwingE returns C*V^2, the energy of a complete charge/discharge
// cycle (e.g. a precharged bitline pair accessed every operation).
func (c *Ctx) FullSwingE(cap float64) float64 { return cap * c.Dev.Vdd * c.Dev.Vdd }

// InvCin returns the input capacitance of an inverter with NMOS width wn
// and the standard 2:1 P:N ratio.
func (c *Ctx) InvCin(wn float64) float64 { return 3 * wn * c.Dev.CgPerW }

// InvCself returns the parasitic drain capacitance of the same inverter.
func (c *Ctx) InvCself(wn float64) float64 { return 3 * wn * c.Dev.CjPerW }

// InvDelay returns the Elmore delay of an inverter of NMOS width wn
// driving load cload (s).
func (c *Ctx) InvDelay(wn, cload float64) float64 {
	r := c.Dev.REqN(wn)
	return 0.69 * r * (cload + c.InvCself(wn))
}

// InvLeak returns the static power of one inverter of NMOS width wn at
// tech.ReferenceTempK.
func (c *Ctx) InvLeak(wn float64) (subW, gateW float64) {
	wp := 2 * wn
	isub := c.Dev.Ioff(wn, wp)
	ig := c.Dev.Ig(wn + wp)
	return isub * c.Dev.Vdd, ig * c.Dev.Vdd
}

// FO4 is the fanout-of-4 delay of this context.
func (c *Ctx) FO4() float64 {
	wn := c.Node.MinWidthN()
	return 0.69 * c.Dev.REqN(wn) * (4*c.InvCin(wn) + c.InvCself(wn))
}

// Horowitz computes gate delay including the input slope effect.
// inputRamp is the 10-90% transition time of the input, tf the intrinsic
// RC time constant of the gate, vs the switching threshold as a fraction
// of Vdd.
func Horowitz(inputRamp, tf, vs float64) float64 {
	if inputRamp <= 0 {
		return tf * math.Sqrt(math.Log(vs)*math.Log(vs))
	}
	a := inputRamp / tf
	return tf * math.Sqrt(math.Log(vs)*math.Log(vs)+2*a*0.5*(1-vs))
}

// Chain describes a logical-effort buffer chain driving a large load.
type Chain struct {
	Stages   int
	Delay    float64 // s
	Energy   float64 // J per output transition (all stages)
	SubLeak  float64 // W
	GateLeak float64
	Area     float64 // m^2
	Cin      float64 // input capacitance presented to the driver (F)
}

// transistorArea approximates layout area of a transistor of width w:
// width times a 4F channel+contact pitch, doubled for wiring overhead.
func (c *Ctx) transistorArea(w float64) float64 {
	return 2 * w * 4 * c.Node.Feature
}

// BufferChain sizes a chain of inverters with stage effort ~4 to drive
// cload starting from a minimum-size first stage, the standard driver
// model for wordlines, predecoders, and output drivers.
func (c *Ctx) BufferChain(cload float64) Chain {
	wmin := c.Node.MinWidthN()
	cin := c.InvCin(wmin)
	if cload <= cin {
		sub, gate := c.InvLeak(wmin)
		return Chain{
			Stages: 1, Delay: c.InvDelay(wmin, cload),
			Energy:  c.SwitchE(cload + c.InvCself(wmin)),
			SubLeak: sub, GateLeak: gate,
			Area: c.transistorArea(3 * wmin), Cin: cin,
		}
	}
	f := cload / cin
	n := int(math.Max(1, math.Round(math.Log(f)/math.Log(4))))
	stageF := math.Pow(f, 1/float64(n))
	ch := Chain{Stages: n, Cin: cin}
	w := wmin
	for i := 0; i < n; i++ {
		next := cload
		if i < n-1 {
			next = c.InvCin(w * stageF)
		}
		ch.Delay += c.InvDelay(w, next)
		ch.Energy += c.SwitchE(next + c.InvCself(w))
		sub, gate := c.InvLeak(w)
		ch.SubLeak += sub
		ch.GateLeak += gate
		ch.Area += c.transistorArea(3 * w)
		w *= stageF
	}
	return ch
}

// WireResult describes a (possibly repeated) wire of a concrete length.
type WireResult struct {
	Delay        float64 // s end to end
	EnergyPerBit float64 // J per transition of one bit line
	SubLeak      float64 // W (repeaters)
	GateLeak     float64 // W
	Area         float64 // m^2 (repeater area; wire itself is over-cell routing)
	Repeaters    int
	RepeaterSize float64 // NMOS width multiple of minimum
}

// Repeater is the length-independent half of an optimally repeated wire
// of one class: the Bakoglu segment length and repeater size, the sized
// repeater's drive and loads, and one repeater's leakage and area.
// Designing it costs two square roots and the device math, so a caller
// that places many wires of one class designs the repeater once and
// calls Wire per length.
type Repeater struct {
	resPerM, capPerM, vdd float64
	lopt, hopt            float64 // optimal segment length (m) and repeater size
	rd, cd, cpd           float64 // sized repeater's drive R, input C, parasitic C
	sub, gate, area       float64 // one repeater's leakage (W) and area (m^2)
}

// Repeater designs the delay-optimal repeater for wire class w.
func (c *Ctx) Repeater(w tech.Wire) Repeater {
	var r Repeater
	c.designRepeater(w, &r)
	return r
}

// designRepeater fills *r in place. The compiler keeps structs of more
// than four fields in memory, so building a Repeater as a function result
// copies it once more: RepeatedWire measured ~150 ns that way against
// ~105 ns in place (2.1 GHz Xeon, amd64, go1.24).
func (c *Ctx) designRepeater(w tech.Wire, r *Repeater) {
	wmin := c.Node.MinWidthN()
	r0 := c.Dev.REqN(wmin)
	c0 := c.InvCin(wmin)
	cp := c.InvCself(wmin)
	// Classic Bakoglu optimal repeater insertion.
	r.lopt = math.Sqrt(2 * r0 * (c0 + cp) / (w.ResPerM * w.CapPerM))
	r.hopt = math.Sqrt(r0 * w.CapPerM / (w.ResPerM * c0))
	r.resPerM, r.capPerM, r.vdd = w.ResPerM, w.CapPerM, c.Dev.Vdd
	r.rd, r.cd, r.cpd = r0/r.hopt, c0*r.hopt, cp*r.hopt
	r.sub, r.gate = c.InvLeak(wmin * r.hopt)
	r.area = c.transistorArea(3 * wmin * r.hopt)
}

// Wire places the repeater along a wire of the given length and returns
// its delay/energy/leakage. For very short wires (shorter than one
// optimal segment) the wire is driven directly by a single repeater.
func (r *Repeater) Wire(length float64) WireResult {
	if length <= 0 {
		return WireResult{}
	}
	n := int(math.Max(1, math.Round(length/r.lopt)))
	seg := length / float64(n)
	rw, cw := r.resPerM*seg, r.capPerM*seg
	segDelay := 0.69*(r.rd*(r.cpd+cw+r.cd)) + 0.69*rw*(cw/2+r.cd)
	return WireResult{
		Delay:        float64(n) * segDelay,
		EnergyPerBit: float64(n) * (0.5 * (cw + r.cd + r.cpd) * r.vdd * r.vdd),
		SubLeak:      float64(n) * r.sub,
		GateLeak:     float64(n) * r.gate,
		Area:         float64(n) * r.area,
		Repeaters:    n,
		RepeaterSize: r.hopt,
	}
}

// RepeatedWire inserts delay-optimal repeaters into a wire of the given
// class and length and returns its delay/energy/leakage: the repeater
// design followed by its placement.
func (c *Ctx) RepeatedWire(w tech.Wire, length float64) WireResult {
	var r Repeater
	c.designRepeater(w, &r)
	return r.Wire(length)
}

// UnrepeatedWireDelay returns the Elmore delay of a plain RC wire of the
// given class and length driven by resistance rdrive into load cload.
func UnrepeatedWireDelay(w tech.Wire, length, rdrive, cload float64) float64 {
	rw, cw := w.ResPerM*length, w.CapPerM*length
	return 0.69 * (rdrive*(cw+cload) + rw*(cw/2+cload))
}

// DFF describes a single edge-triggered flip-flop bit.
type DFF struct {
	EnergyClk  float64 // J per clock transition (clock load of one FF)
	EnergyData float64 // J per data transition
	SubLeak    float64 // W
	GateLeak   float64 // W
	Area       float64 // m^2
	ClkCap     float64 // F presented to the clock network
}

// NewDFF returns the flip-flop model of this context: a standard
// transmission-gate master/slave FF of roughly 20 minimum transistors.
func (c *Ctx) NewDFF() DFF {
	wmin := c.Node.MinWidthN()
	// Clock drives 4 transmission gates + 2 local inverters: ~8 min widths.
	clkCap := 8 * wmin * c.Dev.CgPerW
	// A data toggle switches ~6 internal nodes of ~min inverter size.
	dataCap := 6 * (c.InvCin(wmin)/3 + c.InvCself(wmin)/3)
	sub := c.Dev.Ioff(8*wmin, 8*wmin) * c.Dev.Vdd
	gate := c.Dev.Ig(16*wmin) * c.Dev.Vdd
	return DFF{
		EnergyClk:  c.SwitchE(clkCap),
		EnergyData: c.SwitchE(dataCap),
		SubLeak:    sub,
		GateLeak:   gate,
		Area:       c.Node.DFFCellArea,
		ClkCap:     clkCap,
	}
}

// PipelineWire pipelines a long repeated wire so each stage fits in the
// given cycle time, returning the wire result plus the flip-flop overhead
// per bit and the number of pipeline stages.
func (c *Ctx) PipelineWire(w tech.Wire, length, cycle float64) (WireResult, DFF, int) {
	res := c.RepeatedWire(w, length)
	stages := 1
	if cycle > 0 && res.Delay > cycle {
		stages = int(math.Ceil(res.Delay / cycle))
	}
	return res, c.NewDFF(), stages
}

// LowSwingWire models a differential low-swing interconnect: the driver
// swings the wire pair by only ~100 mV around a common mode and a
// sense-amplifier receiver restores full swing. Energy drops by roughly
// Vdd/Vswing versus a full-swing repeated wire at the cost of receiver
// latency and the inability to insert repeaters (the line is a single RC
// span), which limits practical length. This is CACTI's low-swing wire
// option, which McPAT applies to long, wide buses.
func (c *Ctx) LowSwingWire(w tech.Wire, length float64) WireResult {
	if length <= 0 {
		return WireResult{}
	}
	const vSwing = 0.1 // V differential swing

	wmin := c.Node.MinWidthN()
	// Large driver for the long unrepeated line.
	drvW := 40 * wmin
	rDrv := c.Dev.REqN(drvW)
	// Differential pair: two wires, each at the given class's RC.
	cw := w.CapPerM * length
	rw := w.ResPerM * length

	// Delay: RC flight of the unrepeated span plus sense-amp resolution
	// (~3 FO4). The 0.38 factor is the distributed-RC constant to 50%.
	delay := 0.69*rDrv*cw + 0.38*rw*cw + 3*c.FO4()

	// Energy: the pair is charged by vSwing from Vdd-referenced drivers:
	// E = C * Vdd * Vswing per transition per wire, both wires of the
	// pair move, plus the sense amp's full-swing internal nodes.
	cSA := 10 * wmin * c.Dev.CgPerW
	energy := 2*cw*c.Dev.Vdd*vSwing + c.FullSwingE(cSA)

	sub, gate := c.InvLeak(drvW)
	subSA, gateSA := c.InvLeak(4 * wmin)
	return WireResult{
		Delay:        delay,
		EnergyPerBit: energy,
		SubLeak:      sub + subSA,
		GateLeak:     gate + gateSA,
		Area:         c.transistorArea(3*drvW) + c.transistorArea(12*wmin),
		Repeaters:    0,
		RepeaterSize: float64(drvW / wmin),
	}
}
