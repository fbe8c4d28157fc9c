package chip

import (
	"fmt"
	"math"
	"sort"

	"mcpat/internal/tech"
)

// TimingEntry reports one component's critical-path timing against the
// chip's cycle budget - McPAT's "help the user find the hardware critical
// path" output.
type TimingEntry struct {
	Component string
	Delay     float64 // s, full access/operation latency
	Cycle     float64 // s, minimum pipelined cycle time
	Cycles    float64 // Delay in units of the chip clock period
	Met       bool    // Cycle <= clock period
}

// TimingReport lists every timed component sorted by how many clock
// cycles its full latency spans, flagging any whose minimum cycle time
// cannot keep up with the configured clock.
func (p *Processor) TimingReport() []TimingEntry {
	period := 1 / p.Cfg.ClockHz
	var out []TimingEntry
	add := func(name string, delay, cycle float64) {
		if delay <= 0 {
			return
		}
		if cycle <= 0 {
			cycle = delay
		}
		out = append(out, TimingEntry{
			Component: name,
			Delay:     delay,
			Cycle:     cycle,
			Cycles:    delay / period,
			Met:       cycle <= period*1.0001,
		})
	}

	for _, ct := range p.CoreModel.Timings() {
		add("core."+ct.Name, ct.Delay, ct.Cycle)
	}
	if p.L2 != nil {
		add("L2", p.L2.Data.AccessTime, p.L2.Data.CycleTime)
	}
	if p.L3 != nil {
		add("L3", p.L3.Data.AccessTime, p.L3.Data.CycleTime)
	}
	if p.router != nil {
		add("noc.router", p.router.Delay, p.router.CycleTime())
	}
	if p.link != nil {
		add("noc.link", p.link.Delay, p.link.Delay/math.Max(float64(p.link.Stages), 1))
	}
	if p.clusterBus != nil {
		add("noc.clusterbus", p.clusterBus.Delay, p.clusterBus.Delay)
	}
	if p.mcCtl != nil {
		add("mc.frontend", p.mcCtl.Delay, p.mcCtl.Delay)
	}

	sort.Slice(out, func(i, j int) bool { return out[i].Cycles > out[j].Cycles })
	return out
}

// VFPoint is one operating point of a voltage-frequency scan.
type VFPoint struct {
	Vdd     float64 // V
	ClockHz float64
	TDP     float64 // W
	Dynamic float64 // W
	Leakage float64 // W
	// EnergyPerCycle folds TDP over the clock: the DVFS figure of merit.
	EnergyPerCycle float64 // J
}

// VFScan sweeps supply voltage around the configuration's nominal point
// and rebuilds the chip at each (V, f) pair, with frequency following the
// alpha-power law f ~ (V-Vth)^1.3 / V relative to nominal - McPAT's
// voltage-scaling capability for DVFS studies. scales are relative Vdd
// multipliers (nil selects 0.7..1.1 in steps of 0.1).
func VFScan(cfg Config, scales []float64) ([]VFPoint, error) {
	if len(scales) == 0 {
		scales = []float64{0.7, 0.8, 0.9, 1.0, 1.1}
	}
	node, err := tech.ByFeature(cfg.NM)
	if err != nil {
		return nil, err
	}
	dev := node.Device(cfg.Dev, cfg.LongChannel)
	v0 := cfg.Vdd
	if v0 == 0 {
		v0 = dev.Vdd
	}
	f0 := cfg.ClockHz
	vth := dev.Vth

	const alpha = 1.3
	speed := func(v float64) float64 {
		if v <= vth*1.05 {
			return 0
		}
		num := math.Pow(v-vth, alpha) / v
		den := math.Pow(v0-vth, alpha) / v0
		return num / den
	}

	var out []VFPoint
	var slab Slab
	for _, s := range scales {
		v := v0 * s
		sp := speed(v)
		if sp <= 0 {
			return nil, fmt.Errorf("chip: Vdd %.2f V too close to Vth %.2f V for operation", v, vth)
		}
		c := cfg
		c.Vdd = v
		c.ClockHz = f0 * sp
		proc, err := New(c)
		if err != nil {
			return nil, err
		}
		sc, err := proc.Score(nil, &slab)
		if err != nil {
			return nil, err
		}
		out = append(out, VFPoint{
			Vdd:            v,
			ClockHz:        c.ClockHz,
			TDP:            sc.Peak(0),
			Dynamic:        sc.PeakDynamic(0),
			Leakage:        sc.Leakage(0),
			EnergyPerCycle: sc.Peak(0) / c.ClockHz,
		})
	}
	return out, nil
}
