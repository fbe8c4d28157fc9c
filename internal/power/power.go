// Package power defines the common power/area/timing accounting types that
// every McPAT model returns, and the hierarchical report tree the chip
// assembles. Keeping one uniform result shape is what lets McPAT compose
// wires, arrays, logic and full cores into a single chip-level breakdown.
package power

import (
	"fmt"
	"strings"
)

// Energy holds per-operation dynamic energies in joules. Search applies
// only to CAM-like structures.
type Energy struct {
	Read   float64
	Write  float64
	Search float64
}

// Static holds leakage power in watts, split the way McPAT reports it:
// subthreshold conduction and gate (tunneling) leakage.
type Static struct {
	Sub  float64
	Gate float64
}

// Total returns combined leakage power (W).
func (s Static) Total() float64 { return s.Sub + s.Gate }

// Add returns the sum of two static-power records.
func (s Static) Add(o Static) Static { return Static{s.Sub + o.Sub, s.Gate + o.Gate} }

// Scale returns the record multiplied by k.
func (s Static) Scale(k float64) Static { return Static{s.Sub * k, s.Gate * k} }

// PAT is the uniform power/area/timing triple returned by every circuit
// and architecture model.
type PAT struct {
	Energy Energy  // dynamic energy per operation (J)
	Static Static  // leakage power (W)
	Area   float64 // silicon area (m^2)
	Delay  float64 // critical-path delay of one operation (s)
	Cycle  float64 // minimum cycle time if internally pipelined (s); 0 = Delay
}

// Units returns n copies of the block driven by one activity stream: n
// times its area and leakage, one copy's energy per operation and delay.
func (p PAT) Units(n int) PAT {
	p.Area *= float64(n)
	p.Static = p.Static.Scale(float64(n))
	return p
}

// CycleTime returns the effective minimum cycle time.
func (p PAT) CycleTime() float64 {
	if p.Cycle > 0 {
		return p.Cycle
	}
	return p.Delay
}

// Activity is an access-rate vector in operations per second. Multiplying
// an Activity against a PAT's per-op energies yields dynamic power.
type Activity struct {
	Reads    float64
	Writes   float64
	Searches float64
}

// DynamicPower returns the dynamic power (W) of a block with per-op
// energies e driven at rates a.
func (e Energy) DynamicPower(a Activity) float64 {
	return e.Read*a.Reads + e.Write*a.Writes + e.Search*a.Searches
}

// Item is one node of the hierarchical power/area report. An interior
// item's values are the rollup of its children's (Score.Tree builds
// every report tree from a scored Program).
type Item struct {
	Name           string
	Area           float64 // m^2
	PeakDynamic    float64 // W at TDP activity
	RuntimeDynamic float64 // W at measured activity (0 if no stats given)
	SubLeak        float64 // W
	GateLeak       float64 // W
	// LeakSaved is runtime leakage recovered by power gating (W): it is
	// subtracted from Runtime() but never from Peak(), since TDP assumes
	// the gates are awake.
	LeakSaved float64
	Children  []*Item
}

// Leakage returns total leakage power (W) of this node only.
func (it *Item) Leakage() float64 { return it.SubLeak + it.GateLeak }

// Peak returns peak total power (W) of this node only.
func (it *Item) Peak() float64 { return it.PeakDynamic + it.Leakage() }

// Runtime returns runtime total power (W) of this node only, net of any
// power-gating savings.
func (it *Item) Runtime() float64 { return it.RuntimeDynamic + it.Leakage() - it.LeakSaved }

// Find returns the first descendant (depth-first, including the receiver)
// whose name matches, or nil.
func (it *Item) Find(name string) *Item {
	if it.Name == name {
		return it
	}
	for _, c := range it.Children {
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}

// String renders the full tree.
func (it *Item) String() string {
	var b strings.Builder
	it.write(&b, 0, -1)
	return b.String()
}

// Format renders the tree down to maxDepth levels (0 = just this node,
// negative = unlimited), in the indented style of McPAT's console output.
func (it *Item) Format(maxDepth int) string {
	var b strings.Builder
	it.write(&b, 0, maxDepth)
	return b.String()
}

func (it *Item) write(b *strings.Builder, depth, maxDepth int) {
	ind := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%s%s:\n", ind, it.Name)
	fmt.Fprintf(b, "%s  Area = %.4f mm^2\n", ind, it.Area*1e6)
	fmt.Fprintf(b, "%s  Peak Dynamic = %.4f W\n", ind, it.PeakDynamic)
	fmt.Fprintf(b, "%s  Subthreshold Leakage = %.4f W\n", ind, it.SubLeak)
	fmt.Fprintf(b, "%s  Gate Leakage = %.4f W\n", ind, it.GateLeak)
	if it.RuntimeDynamic > 0 {
		fmt.Fprintf(b, "%s  Runtime Dynamic = %.4f W\n", ind, it.RuntimeDynamic)
	}
	if maxDepth >= 0 && depth >= maxDepth {
		return
	}
	for _, c := range it.Children {
		c.write(b, depth+1, maxDepth)
	}
}
