package presets

import (
	"fmt"
	"math"
	"testing"

	"mcpat/internal/chip"
	"mcpat/internal/power"
)

// scalingTol is the relative tolerance of the scaling-law checks: the
// laws hold exactly, and only the rounding of the retune's products is
// allowed.
const scalingTol = 1e-12

func closeRel(a, b float64) bool {
	return math.Abs(a-b) <= scalingTol*math.Max(math.Abs(a), math.Abs(b))
}

// eachNode calls fn on every pair of corresponding nodes of two reports
// of one chip, depth first, with the node's path.
func eachNode(t *testing.T, path string, a, b *power.Item, fn func(path string, a, b *power.Item)) {
	t.Helper()
	path += "/" + a.Name
	if a.Name != b.Name || len(a.Children) != len(b.Children) {
		t.Fatalf("%s: report shapes differ (%q with %d children, %q with %d)",
			path, a.Name, len(a.Children), b.Name, len(b.Children))
	}
	fn(path, a, b)
	for i := range a.Children {
		eachNode(t, path, a.Children[i], b.Children[i], fn)
	}
}

// TestScoreScalingLaws checks the Score-time operating-point laws on
// every report node of every preset, scoring one stats vector at the
// nominal point, under SetScoreTemperature and under SetScoreDVFS:
//   - subthreshold leakage never falls as the temperature rises, and
//     rises wherever it is positive;
//   - a fixed amount of work run at frequency fraction f over the
//     stretched duration t0/f takes V²·E0 dynamic energy whatever f is,
//     and (V/f)·E0 subthreshold-leakage energy;
//   - gate leakage, peak dynamic power and area do not move, and the
//     runtime dynamic power does not move with temperature.
//
// The split of energy to solution into a frequency-independent V²
// dynamic part and a leakage part paid per unit of time is the one
// Hager et al. fit on real chips.
func TestScoreScalingLaws(t *testing.T) {
	const t0 = 1.0 // s, the nominal duration of the fixed work
	for _, pr := range All() {
		p, err := chip.New(pr.Config)
		if err != nil {
			t.Fatalf("%s: %v", pr.Name, err)
		}
		stats := &chip.Stats{
			CoreRun:    p.CorePeakActivity().Scale(0.5),
			L2Reads:    1.0e9,
			L2Writes:   0.4e9,
			L3Reads:    0.2e9,
			L3Writes:   0.1e9,
			NoCFlits:   1.5e9,
			MCAccesses: 0.1e9,
		}
		score := func() *power.Item {
			rep, err := p.ReportE(stats)
			if err != nil {
				t.Fatalf("%s: %v", pr.Name, err)
			}
			return rep
		}
		tempK := p.ScoreTemperature()
		nominal := score()
		var dynNodes, leakNodes int
		eachNode(t, pr.Name, nominal, nominal, func(_ string, n, _ *power.Item) {
			if n.RuntimeDynamic > 0 {
				dynNodes++
			}
			if n.SubLeak > 0 {
				leakNodes++
			}
		})
		if dynNodes == 0 || leakNodes == 0 {
			t.Fatalf("%s: %d nodes with runtime dynamic power and %d with subthreshold leakage; the laws would hold vacuously",
				pr.Name, dynNodes, leakNodes)
		}
		// unmoved checks the columns no retune may touch.
		unmoved := func(path, at string, got, want *power.Item) {
			if !closeRel(got.GateLeak, want.GateLeak) || !closeRel(got.PeakDynamic, want.PeakDynamic) ||
				!closeRel(got.Area, want.Area) {
				t.Errorf("%s %s: gate leakage %g W, peak dynamic %g W, area %g m², nominal %g, %g, %g",
					path, at, got.GateLeak, got.PeakDynamic, got.Area, want.GateLeak, want.PeakDynamic, want.Area)
			}
		}

		prev := nominal
		prevK := tempK
		for _, k := range []float64{tempK + 15, tempK + 40, tempK + 80} {
			p.SetScoreTemperature(k)
			rep := score()
			eachNode(t, pr.Name, rep, prev, func(path string, hot, cool *power.Item) {
				if hot.SubLeak < cool.SubLeak || (cool.SubLeak > 0 && hot.SubLeak <= cool.SubLeak) {
					t.Errorf("%s: subthreshold leakage %g W at %.0f K against %g W at %.0f K",
						path, hot.SubLeak, k, cool.SubLeak, prevK)
				}
			})
			at := fmt.Sprintf("at %.0f K", k)
			eachNode(t, pr.Name, rep, nominal, func(path string, got, want *power.Item) {
				unmoved(path, at, got, want)
				if !closeRel(got.RuntimeDynamic, want.RuntimeDynamic) {
					t.Errorf("%s %s: runtime dynamic %g W, nominal %g W", path, at, got.RuntimeDynamic, want.RuntimeDynamic)
				}
			})
			prev, prevK = rep, k
		}
		p.SetScoreTemperature(tempK)

		for _, op := range []struct{ f, v float64 }{{0.5, 0.8}, {0.75, 0.9}, {1, 0.7}, {1.25, 1.1}} {
			p.SetScoreDVFS(op.f, op.v)
			rep := score()
			t1 := t0 / op.f
			at := fmt.Sprintf("at f=%g V=%g", op.f, op.v)
			eachNode(t, pr.Name, rep, nominal, func(path string, got, want *power.Item) {
				unmoved(path, at, got, want)
				if e, e0 := got.RuntimeDynamic*t1, want.RuntimeDynamic*t0; !closeRel(e, op.v*op.v*e0) {
					t.Errorf("%s %s: dynamic energy %g J, want V²·E0 = %g J", path, at, e, op.v*op.v*e0)
				}
				if e, e0 := got.SubLeak*t1, want.SubLeak*t0; !closeRel(e, op.v/op.f*e0) {
					t.Errorf("%s %s: subthreshold energy %g J, want (V/f)·E0 = %g J", path, at, e, op.v/op.f*e0)
				}
			})
		}
	}
}
