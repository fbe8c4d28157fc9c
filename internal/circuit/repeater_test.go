package circuit

import (
	"math"
	"testing"

	"mcpat/internal/tech"
	"mcpat/internal/tech/techtest"
)

// refRepeatedWire is the one-shot repeated-wire formula that Repeater and
// Wire split into a design and a placement. It is kept verbatim so the
// split is held to the same bits.
func refRepeatedWire(c *Ctx, w tech.Wire, length float64) WireResult {
	if length <= 0 {
		return WireResult{}
	}
	wmin := c.Node.MinWidthN()
	r0 := c.Dev.REqN(wmin)
	c0 := c.InvCin(wmin)
	cp := c.InvCself(wmin)
	// Classic Bakoglu optimal repeater insertion.
	lopt := math.Sqrt(2 * r0 * (c0 + cp) / (w.ResPerM * w.CapPerM))
	hopt := math.Sqrt(r0 * w.CapPerM / (w.ResPerM * c0))
	n := int(math.Max(1, math.Round(length/lopt)))
	seg := length / float64(n)
	rw, cw := w.ResPerM*seg, w.CapPerM*seg
	rd := r0 / hopt
	cd := c0 * hopt
	cpd := cp * hopt
	segDelay := 0.69*(rd*(cpd+cw+cd)) + 0.69*rw*(cw/2+cd)
	energy := float64(n) * c.SwitchE(cw+cd+cpd)
	sub, gate := c.InvLeak(wmin * hopt)
	return WireResult{
		Delay:        float64(n) * segDelay,
		EnergyPerBit: energy,
		SubLeak:      float64(n) * sub,
		GateLeak:     float64(n) * gate,
		Area:         float64(n) * c.transistorArea(3*wmin*hopt),
		Repeaters:    n,
		RepeaterSize: hopt,
	}
}

// wireBitsDiff names the first WireResult field whose bits differ, or
// returns "" when got and want are bit-identical.
func wireBitsDiff(got, want WireResult) string {
	floats := []struct {
		name      string
		got, want float64
	}{
		{"Delay", got.Delay, want.Delay},
		{"EnergyPerBit", got.EnergyPerBit, want.EnergyPerBit},
		{"SubLeak", got.SubLeak, want.SubLeak},
		{"GateLeak", got.GateLeak, want.GateLeak},
		{"Area", got.Area, want.Area},
		{"RepeaterSize", got.RepeaterSize, want.RepeaterSize},
	}
	for _, f := range floats {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			return f.name
		}
	}
	if got.Repeaters != want.Repeaters {
		return "Repeaters"
	}
	return ""
}

// TestRepeaterMatchesReference holds RepeatedWire and a designed
// Repeater's Wire to the reference formula bit for bit, over every node,
// device class, channel length, wire class and projection, at lengths
// that straddle the optimal segment's rounding points.
func TestRepeaterMatchesReference(t *testing.T) {
	devices := []tech.DeviceType{tech.HP, tech.LSTP, tech.LOP}
	projections := []tech.Projection{tech.Aggressive, tech.Conservative}
	classes := []tech.WireType{tech.Local, tech.SemiGlobal, tech.Global}
	checked := 0
	for _, nm := range tech.Nodes() {
		n := techtest.Node(nm)
		for _, dt := range devices {
			for _, long := range []bool{false, true} {
				c := NewCtx(n, dt, long)
				for _, p := range projections {
					for _, wt := range classes {
						w := n.Wire(p, wt)
						r := c.Repeater(w)
						for _, l := range []float64{-1, 0, 1e-9, 0.5 * r.lopt, r.lopt, 1.5 * r.lopt, 1e-3, 2e-3, 5e-2} {
							want := refRepeatedWire(&c, w, l)
							if d := wireBitsDiff(c.RepeatedWire(w, l), want); d != "" {
								t.Errorf("%s %v long=%v %v %v l=%g: RepeatedWire %s differs from the reference", n.Name, dt, long, p, wt, l, d)
							}
							if d := wireBitsDiff(r.Wire(l), want); d != "" {
								t.Errorf("%s %v long=%v %v %v l=%g: Repeater.Wire %s differs from the reference", n.Name, dt, long, p, wt, l, d)
							}
							checked++
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no cases checked")
	}
}

// TestRepeaterWireAllocs pins that placing a designed repeater is pure
// arithmetic: the array optimizer calls Wire for every bank geometry.
func TestRepeaterWireAllocs(t *testing.T) {
	c := ctx90()
	r := c.Repeater(c.Node.Wire(tech.Aggressive, tech.SemiGlobal))
	var sink WireResult
	if a := testing.AllocsPerRun(100, func() { sink = r.Wire(2e-3) }); a != 0 {
		t.Errorf("Repeater.Wire allocates %v times per call, want 0", a)
	}
	if sink.Repeaters < 1 {
		t.Errorf("2mm wire placed %d repeaters", sink.Repeaters)
	}
}
