package mcpat_test

// Equivalence contract of the Score-time temperature refactor, at the
// whole-chip level over every validation target:
//
//  1. Temperature is *exactly* a Score-time retune. A chip configured at
//     any operating temperature, re-scored at the reference temperature,
//     must produce a report byte-for-byte equal to a chip that never left
//     the reference — proving no temperature dependence leaked into
//     synthesis. (The one-time migration check against the pre-refactor
//     engine was done with golden hex-float dumps: default-temperature
//     reports were bit-identical; this test is the permanent in-tree
//     guard of that property.)
//  2. Chips differing only in temperature share every synthesized part:
//     building the same target at several temperatures after a warm-up
//     build causes zero additional synthesis misses.
//  3. The closed-loop trace engine's steady state on a constant workload
//     equals the legacy thermal.Solve fixed point to 1e-9 relative
//     tolerance, with cache counters proving the whole loop ran against
//     exactly one synthesis.

import (
	"context"
	"math"
	"reflect"
	"testing"

	"mcpat"
)

// scoreAtReference builds cfg and rescores it at the node's reference
// temperature, returning the resulting TDP report.
func scoreAtReference(t *testing.T, cfg mcpat.Config) *mcpat.Report {
	t.Helper()
	p, err := mcpat.New(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Name, err)
	}
	p.SetScoreTemperature(0) // restore the reference temperature
	rep, err := p.ReportE(nil)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Name, err)
	}
	return rep
}

// TestTemperatureIsPureScoreRetune: for every validation target, reports
// scored at the reference temperature are bit-identical regardless of
// the operating temperature the chip was configured with.
func TestTemperatureIsPureScoreRetune(t *testing.T) {
	for _, target := range mcpat.ValidationTargets() {
		cfg := target.Chip

		base := cfg
		base.Temperature = 0 // node reference
		ref := scoreAtReference(t, base)

		for _, temp := range []float64{320, 340, 360, 380} {
			hot := cfg
			hot.Temperature = temp
			got := scoreAtReference(t, hot)
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: chip configured at %.0f K rescored at reference differs from reference-built chip",
					cfg.Name, temp)
			}
		}
	}
}

// TestTemperatureVariantsShareSynthesis: after one warm-up build per
// target, rebuilding at different operating temperatures must be served
// entirely from the synthesis caches — the fingerprint no longer embeds
// temperature.
func TestTemperatureVariantsShareSynthesis(t *testing.T) {
	for _, target := range mcpat.ValidationTargets() {
		if _, err := mcpat.New(target.Chip); err != nil { // warm-up
			t.Fatalf("%s: %v", target.Ref.Name, err)
		}
	}
	before := mcpat.ReadEngineCounters().Subsys
	for _, target := range mcpat.ValidationTargets() {
		for _, temp := range []float64{310, 355, 395} {
			cfg := target.Chip
			cfg.Temperature = temp
			if _, err := mcpat.New(cfg); err != nil {
				t.Fatalf("%s at %.0f K: %v", target.Ref.Name, temp, err)
			}
		}
	}
	d := mcpat.ReadEngineCounters().Subsys.Delta(before).Total()
	if d.Misses != 0 || d.Bypassed != 0 {
		t.Errorf("temperature-only variants caused %d synthesis misses and %d bypasses; parts must be shared",
			d.Misses, d.Bypassed)
	}
}

// TestTemperatureMonotonicLeakage sanity-pins the retune's direction and
// shape: leakage grows with score temperature, gate leakage and area do
// not move, and the retune is reversible.
func TestTemperatureMonotonicLeakage(t *testing.T) {
	cfg := mcpat.ValidationTargets()[0].Chip
	p, err := mcpat.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.SetScoreTemperature(0)
	ref, _ := p.ReportE(nil)
	prev := 0.0
	for _, temp := range []float64{320, 340, 360, 380, 400} {
		p.SetScoreTemperature(temp)
		rep, err := p.ReportE(nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.SubLeak <= prev {
			t.Errorf("subthreshold leakage must grow with temperature: %.3f W at %.0f K after %.3f W", rep.SubLeak, temp, prev)
		}
		if rep.GateLeak != ref.GateLeak {
			t.Errorf("gate leakage must not move with temperature: %.6f vs %.6f W", rep.GateLeak, ref.GateLeak)
		}
		if rep.Area != ref.Area || rep.PeakDynamic != ref.PeakDynamic {
			t.Error("area and peak dynamic must not move with temperature")
		}
		prev = rep.SubLeak
	}
	p.SetScoreTemperature(0)
	back, _ := p.ReportE(nil)
	if !reflect.DeepEqual(back, ref) {
		t.Error("restoring the reference temperature must restore the reference report bits")
	}
}

// TestClosedLoopSteadyStateMatchesSolve: on a constant workload the
// closed-loop trace engine must settle on the same power-temperature
// fixed point the legacy thermal solver finds, within 1e-9 relative
// tolerance — and the entire exercise (engine build, solver, trace loop)
// must touch the synthesis layer exactly once, at engine construction.
func TestClosedLoopSteadyStateMatchesSolve(t *testing.T) {
	cfg := mcpat.ValidationTargets()[0].Chip
	pkg := mcpat.PackageSpec{
		RthetaJA:        0.3,
		AmbientK:        318,
		ConvergenceTolK: 1e-12,
		MaxIterations:   500,
	}

	eng, err := mcpat.NewTraceEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	afterBuild := mcpat.ReadEngineCounters().Subsys

	// Legacy fixed point over the engine's own processor, balancing
	// runtime power (zero activity: the leakage-dominated floor).
	stats := &mcpat.Stats{}
	solved, err := mcpat.SolveThermalOn(eng.Processor(), stats, pkg)
	if err != nil {
		t.Fatal(err)
	}
	if !solved.Converged {
		t.Fatalf("solver did not converge: %+v", solved)
	}

	// Closed loop: whole-die model (the solver's geometry), quasi-static
	// steps, no governor — a constant trace must converge to the same
	// temperature.
	if err := eng.EnableLoop(mcpat.TraceLoopOptions{Package: pkg}); err != nil {
		t.Fatal(err)
	}
	const n = 200
	ivs := make([]mcpat.TraceInterval, n)
	for i := range ivs {
		ivs[i] = mcpat.TraceInterval{Stats: stats, Duration: 1e-3}
	}
	tr, err := eng.Run(context.Background(), ivs, nil)
	if err != nil {
		t.Fatal(err)
	}
	last := tr.Samples[n-1].TemperatureK
	settled := tr.Samples[n-2].TemperatureK
	if math.Abs(last-settled) > 1e-10 {
		t.Fatalf("trace has not settled: %.12f vs %.12f K", settled, last)
	}
	if rel := math.Abs(last-solved.TjK) / solved.TjK; rel > 1e-9 {
		t.Errorf("closed-loop steady state %.9f K vs solver fixed point %.9f K (rel %.2e)",
			last, solved.TjK, rel)
	}

	// Everything after the engine build — solver iterations, loop setup
	// (one heap report), and 200 scored intervals — must be pure Score
	// work: zero synthesis-layer activity of any kind.
	d := mcpat.ReadEngineCounters().Subsys.Delta(afterBuild).Total()
	if d.Misses != 0 || d.Hits != 0 || d.Bypassed != 0 {
		t.Errorf("thermal loop touched the synthesis layer: %+v", d)
	}
}
