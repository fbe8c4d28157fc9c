package trace

import (
	"fmt"

	"mcpat/internal/thermal"
)

// This file closes the power→thermal→DVFS feedback loop around the trace
// engine. With the loop enabled, each interval runs:
//
//	governor (frequency/voltage for this interval, from the hotspot
//	        temperature entering it)
//	  → Score-time retune (chip.SetScoreTemperature / SetScoreDVFS)
//	  → one Score into the engine's slab (no synthesis — the same single
//	        synthesized chip serves the whole trace)
//	  → thermal step (per-block lumped RC network, floorplan-derived
//	        spreading resistances) producing the hotspot that feeds the
//	        next interval
//
// so temperature-dependent leakage and thermally-driven throttling emerge
// from the trace instead of being assumed constant inputs.

// GovernorInput is the state a DVFS governor decides from at the start of
// an interval.
type GovernorInput struct {
	Index     int     // interval index
	TempK     float64 // hotspot junction temperature entering the interval
	AmbientK  float64 // package ambient
	MaxTjK    float64 // junction limit from the PackageSpec (0 = none)
	NominalHz float64 // the chip's synthesis clock
	FreqFrac  float64 // fraction applied on the previous interval (1 on the first)
}

// GovernorDecision is a governor's operating point for one interval, as
// fractions of the nominal clock and supply. Values outside (0, 1] are
// clamped; a zero VddFrac means "derive from FreqFrac by the linear V-f
// rule" (see VddForFreq).
type GovernorDecision struct {
	FreqFrac float64
	VddFrac  float64
}

// Governor picks the DVFS operating point for each interval. Decide is
// called once per interval on the trace goroutine; implementations should
// not allocate (the loop's per-interval path is allocation-free).
type Governor interface {
	Decide(in GovernorInput) GovernorDecision
}

// DefaultVddFloorFrac is the supply fraction the linear V-f rule
// approaches at zero frequency: the retention floor below which SRAM
// cells lose state, so practical DVFS never scales Vdd below ~85% even
// at the lowest frequency step.
const DefaultVddFloorFrac = 0.85

// VddForFreq maps a frequency fraction to a supply fraction by the
// first-order linear V-f rule with a retention floor: full supply at full
// frequency, shrinking proportionally toward floorFrac (0 selects
// DefaultVddFloorFrac) as frequency drops.
func VddForFreq(freqFrac, floorFrac float64) float64 {
	if floorFrac <= 0 || floorFrac > 1 {
		floorFrac = DefaultVddFloorFrac
	}
	if freqFrac >= 1 {
		return 1
	}
	if freqFrac <= 0 {
		return floorFrac
	}
	return floorFrac + (1-floorFrac)*freqFrac
}

// ThermalHeadroom is a proportional thermal-headroom governor: it runs at
// full frequency while the hotspot is below the throttle setpoint and
// sheds GainPerK of frequency per kelvin above it, down to MinFreqFrac.
// Supply follows frequency by the linear V-f rule. The zero value is
// usable: it targets 5 K under the package's junction limit.
type ThermalHeadroom struct {
	// TargetK is the throttle setpoint (K); 0 targets
	// GovernorInput.MaxTjK - 5, and with no junction limit either the
	// governor never throttles.
	TargetK float64
	// GainPerK is the frequency fraction shed per kelvin over the
	// setpoint (0 selects 0.05: full-range throttle over a 10 K band).
	GainPerK float64
	// MinFreqFrac floors the throttle (0 selects 0.5).
	MinFreqFrac float64
	// VddFloorFrac is the supply retention floor for VddForFreq
	// (0 selects DefaultVddFloorFrac).
	VddFloorFrac float64
}

// Decide implements Governor.
func (g ThermalHeadroom) Decide(in GovernorInput) GovernorDecision {
	target := g.TargetK
	if target <= 0 {
		if in.MaxTjK <= 0 {
			return GovernorDecision{FreqFrac: 1, VddFrac: 1}
		}
		target = in.MaxTjK - 5
	}
	over := in.TempK - target
	if over <= 0 {
		return GovernorDecision{FreqFrac: 1, VddFrac: 1}
	}
	gain := g.GainPerK
	if gain <= 0 {
		gain = 0.05
	}
	min := g.MinFreqFrac
	if min <= 0 {
		min = 0.5
	}
	ff := 1 - gain*over
	if ff < min {
		ff = min
	}
	return GovernorDecision{FreqFrac: ff, VddFrac: VddForFreq(ff, g.VddFloorFrac)}
}

// Schedule is a fixed-playback governor: interval i runs at FreqFrac[i]
// (the last entry holds beyond the end; an empty schedule means full
// frequency). VddFrac, if non-empty, plays back in parallel; otherwise
// supply follows frequency by the linear V-f rule. Use it to replay a
// measured DVFS trace or to sweep operating points.
type Schedule struct {
	FreqFrac     []float64
	VddFrac      []float64
	VddFloorFrac float64 // retention floor for the derived supply (0 = default)
}

// Decide implements Governor.
func (g Schedule) Decide(in GovernorInput) GovernorDecision {
	at := func(s []float64) (float64, bool) {
		if len(s) == 0 {
			return 1, false
		}
		i := in.Index
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i], true
	}
	ff, _ := at(g.FreqFrac)
	if vf, ok := at(g.VddFrac); ok {
		return GovernorDecision{FreqFrac: ff, VddFrac: vf}
	}
	return GovernorDecision{FreqFrac: ff, VddFrac: VddForFreq(ff, g.VddFloorFrac)}
}

// NewGovernor resolves a governor by policy name — the shared mapping
// behind the CLI -governor flag and the service's trace options.
// "" and "none" mean no DVFS (nil governor: thermal feedback only),
// "headroom" is the proportional ThermalHeadroom throttle (targetK
// optionally overrides its setpoint), and "schedule" plays back the
// given per-interval frequency fractions.
func NewGovernor(name string, targetK float64, freqSchedule []float64) (Governor, error) {
	switch name {
	case "", "none":
		return nil, nil
	case "headroom":
		return ThermalHeadroom{TargetK: targetK}, nil
	case "schedule":
		if len(freqSchedule) == 0 {
			return nil, fmt.Errorf("trace: governor %q needs a frequency schedule", name)
		}
		for i, f := range freqSchedule {
			if f <= 0 || f > 1 {
				return nil, fmt.Errorf("trace: schedule entry %d (%g) outside (0, 1]", i, f)
			}
		}
		return Schedule{FreqFrac: freqSchedule}, nil
	}
	return nil, fmt.Errorf("trace: unknown governor %q (want none, headroom, or schedule)", name)
}

// LoopOptions configures the closed power/thermal/DVFS loop of a trace
// run.
type LoopOptions struct {
	// Package describes the cooling solution (RthetaJA required). Its
	// TimeConstS selects quasi-static (0) or transient stepping, and its
	// MaxTjK feeds the governor's default setpoint.
	Package thermal.PackageSpec
	// UseFloorplan derives one thermal block per top-level subsystem with
	// floorplan-based spreading resistances (Rtheta_i scaled by the die /
	// block area ratio, die geometry from Processor.Floorplan), so dense
	// hot blocks run hotter than the die average. False uses the
	// whole-die lumped fallback: one block at the package resistance.
	UseFloorplan bool
	// Governor picks per-interval frequency/voltage; nil runs the thermal
	// feedback with no DVFS (frequency stays nominal).
	Governor Governor
	// InitialTempK seeds the block temperatures (0 = ambient).
	InitialTempK float64
}

// loopState is the engine's per-run feedback state.
type loopState struct {
	model    *thermal.Model
	gov      Governor
	maxTjK   float64
	powers   []float64 // per-block scratch, reused every interval
	wholeDie bool      // powers[0] = chip total instead of per-subsystem
	tempK    float64   // hotspot entering the next interval
	freqFrac float64   // fraction applied on the previous interval
}

// EnableLoop arms the closed loop for subsequent Run calls. With
// UseFloorplan it takes the block names and areas from one TDP score
// into the engine's slab and lays out one floorplan — no additional
// synthesis and no report tree. Thermal state persists across Run calls
// on the same engine (so a trace streamed in chunks stays continuous);
// re-invoke EnableLoop to restart from the initial temperature.
func (e *Engine) EnableLoop(opts LoopOptions) error {
	st := &loopState{gov: opts.Governor, maxTjK: opts.Package.MaxTjK}
	var err error
	if opts.UseFloorplan {
		sc, err := e.proc.Score(nil, &e.slab)
		if err != nil {
			return err
		}
		plan, err := e.proc.Floorplan()
		if err != nil {
			return err
		}
		dieArea := plan.Width * plan.Height
		// Children's areas exclude the top-level overhead the die area
		// includes; the ratio of the report's die area to the child sum
		// recovers the placed-area scale without reaching into chip
		// internals.
		var childSum float64
		n := 0
		for c := 1; c < sc.Len(); c = sc.End(c) {
			childSum += sc.Area(c)
			n++
		}
		scale := 1.0
		if childSum > 0 {
			scale = sc.Area(0) / childSum
		}
		blocks := make([]thermal.Block, 0, n)
		for c := 1; c < sc.Len(); c = sc.End(c) {
			blocks = append(blocks, thermal.Block{
				Name:     sc.Name(c),
				RthetaJA: thermal.SpreadRtheta(opts.Package.RthetaJA, dieArea, sc.Area(c)*scale),
			})
		}
		st.model, err = thermal.NewModel(opts.Package, blocks, opts.InitialTempK)
		if err != nil {
			return err
		}
		st.powers = make([]float64, len(blocks))
	} else {
		st.model, err = thermal.NewDieModel(opts.Package, opts.InitialTempK)
		if err != nil {
			return err
		}
		st.powers = make([]float64, 1)
		st.wholeDie = true
	}
	st.tempK = st.model.Hotspot()
	st.freqFrac = 1
	e.loop = st
	return nil
}

// DisableLoop disarms the loop and restores the engine's nominal
// Score-time operating point.
func (e *Engine) DisableLoop() {
	e.loop = nil
	e.proc.SetScoreTemperature(0)
	e.proc.SetScoreDVFS(0, 0)
}

// LoopEnabled reports whether the closed loop is armed.
func (e *Engine) LoopEnabled() bool { return e.loop != nil }

// loopBegin applies the governor decision and the feedback temperature
// for interval i, returning the (possibly stretched) interval and the
// applied frequency fraction. The same number of core cycles at a lower
// clock takes proportionally longer, so throttled intervals stretch by
// the inverse frequency fraction.
func (e *Engine) loopBegin(i int, iv Interval) (Interval, float64) {
	l := e.loop
	ff, vf := 1.0, 1.0
	if l.gov != nil {
		d := l.gov.Decide(GovernorInput{
			Index:     i,
			TempK:     l.tempK,
			AmbientK:  l.model.Ambient(),
			MaxTjK:    l.maxTjK,
			NominalHz: e.proc.Cfg.ClockHz,
			FreqFrac:  l.freqFrac,
		})
		ff = clampFrac(d.FreqFrac)
		vf = clampFrac(d.VddFrac)
	}
	// Score leakage no hotter than the runaway guard: past it the
	// exponential retune overflows to useless infinities, while the
	// sample's reported temperature still shows the excursion.
	scoreT := l.tempK
	if scoreT > thermal.RunawayTjK {
		scoreT = thermal.RunawayTjK
	}
	e.proc.SetScoreTemperature(scoreT)
	e.proc.SetScoreDVFS(ff, vf)
	if ff != 1 {
		iv.Duration /= ff
	}
	return iv, ff
}

// loopEnd steps the thermal model over the scored interval and stamps the
// sample's thermal/DVFS columns. The hotspot after the step becomes the
// temperature the next interval is scored at.
func (e *Engine) loopEnd(s *Sample, ff float64) error {
	l := e.loop
	if l.wholeDie {
		l.powers[0] = s.TotalW
	} else {
		if len(s.Subsystems) != len(l.powers) {
			return fmt.Errorf("trace: loop block count %d does not match %d scored subsystems",
				len(l.powers), len(s.Subsystems))
		}
		for j, sp := range s.Subsystems {
			l.powers[j] = sp.TotalW
		}
	}
	hot := l.model.Step(l.powers, s.DurationS)
	l.tempK = hot
	l.freqFrac = ff
	s.TemperatureK = hot
	s.FreqHz = ff * e.proc.Cfg.ClockHz
	s.Throttled = ff != 1
	return nil
}

// clampFrac normalizes a governor fraction into (0, 1].
func clampFrac(f float64) float64 {
	if f <= 0 || f > 1 {
		return 1
	}
	return f
}
