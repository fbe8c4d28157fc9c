package tech

import (
	"math"
	"testing"
	"testing/quick"
)

func TestByFeatureExactNodes(t *testing.T) {
	for _, nm := range Nodes() {
		n, err := ByFeature(nm)
		if err != nil {
			t.Fatalf("ByFeature(%v): %v", nm, err)
		}
		if got := n.Feature; math.Abs(got-nm*1e-9) > 1e-15 {
			t.Errorf("node %v: feature = %g, want %g", nm, got, nm*1e-9)
		}
		if n.Name == "" {
			t.Errorf("node %v: empty name", nm)
		}
	}
}

func TestByFeatureOutOfRange(t *testing.T) {
	for _, nm := range []float64{10, 21.9, 180.1, 500, 0, -5} {
		if _, err := ByFeature(nm); err == nil {
			t.Errorf("ByFeature(%v): want error, got nil", nm)
		}
	}
}

func TestByFeatureInterpolation(t *testing.T) {
	n78, err := ByFeature(78)
	if err != nil {
		t.Fatal(err)
	}
	n65 := MustByFeature(65)
	n90 := MustByFeature(90)
	d78 := n78.Device(HP, false)
	d65 := n65.Device(HP, false)
	d90 := n90.Device(HP, false)
	if !(d78.Vdd > d65.Vdd && d78.Vdd < d90.Vdd) {
		t.Errorf("interpolated Vdd %v not between %v and %v", d78.Vdd, d65.Vdd, d90.Vdd)
	}
	if !(d78.IoffN > d90.IoffN && d78.IoffN < d65.IoffN) {
		t.Errorf("interpolated IoffN %v not between bracketing nodes (%v, %v)", d78.IoffN, d90.IoffN, d65.IoffN)
	}
	if !(n78.SRAMCellArea > n65.SRAMCellArea && n78.SRAMCellArea < n90.SRAMCellArea) {
		t.Errorf("interpolated SRAM cell area %v out of range", n78.SRAMCellArea)
	}
}

func TestVddMonotonicWithScaling(t *testing.T) {
	prev := math.Inf(1)
	for _, nm := range []float64{180, 90, 65, 45, 32, 22} {
		v := MustByFeature(nm).Device(HP, false).Vdd
		if v > prev {
			t.Errorf("HP Vdd at %vnm = %v exceeds larger node's %v", nm, v, prev)
		}
		prev = v
	}
}

func TestDeviceClassOrdering(t *testing.T) {
	// At every node: HP is fastest (smallest FO4) and leakiest; LSTP is
	// slowest and least leaky; LOP has the lowest Vdd.
	for _, nm := range Nodes() {
		n := MustByFeature(nm)
		fo4HP := n.FO4(HP, false)
		fo4LOP := n.FO4(LOP, false)
		fo4LSTP := n.FO4(LSTP, false)
		if !(fo4HP < fo4LOP && fo4LOP < fo4LSTP) {
			t.Errorf("%s: FO4 ordering HP(%.3gps) < LOP(%.3gps) < LSTP(%.3gps) violated",
				n.Name, fo4HP*1e12, fo4LOP*1e12, fo4LSTP*1e12)
		}
		hp, lop, lstp := n.Device(HP, false), n.Device(LOP, false), n.Device(LSTP, false)
		if !(hp.IoffN > lop.IoffN && lop.IoffN > lstp.IoffN) {
			t.Errorf("%s: leakage ordering violated", n.Name)
		}
		if !(lop.Vdd < hp.Vdd && hp.Vdd <= lstp.Vdd+0.31) {
			t.Errorf("%s: Vdd ordering unexpected: HP=%v LOP=%v LSTP=%v", n.Name, hp.Vdd, lop.Vdd, lstp.Vdd)
		}
	}
}

func TestFO4PlausibleValues(t *testing.T) {
	// HP FO4 should be roughly 0.25-0.6 ps per nm of feature size.
	for _, nm := range Nodes() {
		n := MustByFeature(nm)
		fo4 := n.FO4(HP, false)
		perNM := fo4 / nm * 1e12 // ps per nm
		if perNM < 0.15 || perNM > 0.8 {
			t.Errorf("%s: FO4 = %.3g ps (%.3g ps/nm) outside plausible band", n.Name, fo4*1e12, perNM)
		}
	}
}

func TestLongChannelVariant(t *testing.T) {
	n := MustByFeature(45)
	std := n.Device(HP, false)
	lc := n.Device(HP, true)
	if lc.IoffN >= std.IoffN*0.2 {
		t.Errorf("long channel IoffN %v not substantially below standard %v", lc.IoffN, std.IoffN)
	}
	if lc.IonN >= std.IonN {
		t.Errorf("long channel IonN %v should be below standard %v", lc.IonN, std.IonN)
	}
	if !lc.LongChannel {
		t.Error("LongChannel flag not set")
	}
	if n.FO4(HP, true) <= n.FO4(HP, false) {
		t.Error("long channel FO4 should be slower")
	}
}

func TestLeakageTemperatureScaling(t *testing.T) {
	if s := LeakScaleAt(ReferenceTempK); s != 1 {
		t.Errorf("scale at the reference temperature = %v, want exactly 1", s)
	}
	ratio := LeakScaleAt(360) / LeakScaleAt(300)
	if ratio < 3 || ratio > 12 {
		t.Errorf("300K->360K leakage ratio = %.2f, want roughly 3-12x", ratio)
	}
	prev := 0.0
	for _, tempK := range []float64{250, 300, 340, 360, 380, 420} {
		s := LeakScaleAt(tempK)
		if s <= prev {
			t.Errorf("leakage scale %v at %.0f K is not above %v at the cooler point", s, tempK, prev)
		}
		prev = s
	}
}

func TestWirePlausibility(t *testing.T) {
	n := MustByFeature(90)
	local := n.Wire(Aggressive, Local)
	global := n.Wire(Aggressive, Global)
	// Local 90nm wires: resistance on the order of 1 ohm/um.
	rLocal := local.ResPerM * 1e-6
	if rLocal < 0.2 || rLocal > 5 {
		t.Errorf("90nm local wire R = %.3g ohm/um outside plausible band", rLocal)
	}
	// Global wires are much less resistive per length.
	if global.ResPerM >= local.ResPerM/4 {
		t.Errorf("global R/m (%.3g) should be well below local (%.3g)", global.ResPerM, local.ResPerM)
	}
	// Capacitance per length roughly 0.1-0.4 fF/um.
	cLocal := local.CapPerM * 1e-6 / 1e-15
	if cLocal < 0.05 || cLocal > 0.6 {
		t.Errorf("90nm local wire C = %.3g fF/um outside plausible band", cLocal)
	}
	// Conservative projection is worse on both R and C.
	cons := n.Wire(Conservative, Global)
	if cons.ResPerM*cons.CapPerM <= global.ResPerM*global.CapPerM {
		t.Error("conservative projection should have a higher RC product")
	}
}

func TestWireRCScalesUpWithShrinking(t *testing.T) {
	// Per-length RC delay of local wires gets worse as feature size
	// shrinks - the motivating trend for McPAT's interconnect study.
	prev := 0.0
	for _, nm := range []float64{180, 90, 65, 45, 32, 22} {
		w := MustByFeature(nm).Wire(Aggressive, Local)
		rc := w.ResPerM * w.CapPerM
		if rc <= prev {
			t.Errorf("local wire RC at %vnm (%.3g) not worse than previous node (%.3g)", nm, rc, prev)
		}
		prev = rc
	}
}

func TestSRAMCellAreaScaling(t *testing.T) {
	a90 := MustByFeature(90).SRAMCellArea
	a45 := MustByFeature(45).SRAMCellArea
	ratio := a90 / a45
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("90->45nm SRAM cell shrink = %.2fx, want ~4x", ratio)
	}
	// 90nm 6T cell should be around 1 um^2.
	um2 := a90 * 1e12
	if um2 < 0.7 || um2 > 1.5 {
		t.Errorf("90nm SRAM cell = %.3g um^2, want ~1", um2)
	}
}

func TestQuickInterpolatedNodesAreOrdered(t *testing.T) {
	// Property: for any nm in range, all area-like quantities are
	// positive and FO4 is positive and finite.
	f := func(raw uint16) bool {
		nm := 22 + float64(raw%158) // [22, 180)
		n, err := ByFeature(nm)
		if err != nil {
			return false
		}
		if n.SRAMCellArea <= 0 || n.CAMCellArea <= n.SRAMCellArea || n.DFFCellArea <= n.CAMCellArea {
			return false
		}
		for _, dt := range []DeviceType{HP, LSTP, LOP} {
			fo4 := n.FO4(dt, false)
			if !(fo4 > 0) || math.IsInf(fo4, 0) {
				return false
			}
			d := n.Device(dt, false)
			if d.Vdd <= 0 || d.IonN <= 0 || d.IoffN <= 0 || d.CgPerW <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickLeakageMonotoneInWidth(t *testing.T) {
	d := MustByFeature(32).Device(HP, false)
	f := func(a, b uint8) bool {
		w1 := 1e-7 * (1 + float64(a))
		w2 := w1 + 1e-7*(1+float64(b))
		return d.Ioff(w2, w2) > d.Ioff(w1, w1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// MustByFeature is the test-only panicking variant of ByFeature; the
// production constructor returns an error instead.
func MustByFeature(nm float64) *Node {
	n, err := ByFeature(nm)
	if err != nil {
		panic(err)
	}
	return n
}
