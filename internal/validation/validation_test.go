package validation

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	"mcpat/internal/chip"
)

// TestValidationTotals reproduces the paper's headline validation result:
// modeled TDP and die area of all four target processors land within the
// error band McPAT reports (roughly 10-25%).
func TestValidationTotals(t *testing.T) {
	for _, target := range All() {
		r, err := Compare(target)
		if err != nil {
			t.Fatalf("%s: %v", target.Ref.Name, err)
		}
		t.Logf("%-26s TDP %6.1f W (pub %5.1f, %+5.1f%%)  area %6.1f mm2 (pub %5.1f, %+5.1f%%)",
			target.Ref.Name, r.TDPMod, r.TDPPub, r.TDPErr, r.AreaMod, r.AreaPub, r.AreaErr)
		if math.Abs(r.TDPErr) > 20 {
			t.Errorf("%s: TDP error %+.1f%% exceeds 20%%", target.Ref.Name, r.TDPErr)
		}
		if math.Abs(r.AreaErr) > 25 {
			t.Errorf("%s: area error %+.1f%% exceeds 25%%", target.Ref.Name, r.AreaErr)
		}
	}
}

// TestValidationComponents checks the per-component splits stay within a
// wide band. The published splits are reconstructions (see the package
// comment), so the tolerance is deliberately loose: the shape matters.
func TestValidationComponents(t *testing.T) {
	for _, target := range All() {
		r, err := Compare(target)
		if err != nil {
			t.Fatalf("%s: %v", target.Ref.Name, err)
		}
		for _, row := range r.Rows {
			if math.IsNaN(row.ErrPct) {
				continue
			}
			if math.Abs(row.ErrPct) > 70 {
				t.Errorf("%s / %s: error %+.1f%% exceeds 70%% (pub %.1f, mod %.1f)",
					target.Ref.Name, row.Component, row.ErrPct, row.Published, row.Modeled)
			}
			if row.Modeled <= 0 {
				t.Errorf("%s / %s: modeled power must be positive", target.Ref.Name, row.Component)
			}
		}
	}
}

// errorRecord is one target's validation errors as checked in to
// testdata/errors.json: TDP, die area and every published component,
// in percent of the published value.
type errorRecord struct {
	Target     string             `json:"target"`
	TDPErrPct  float64            `json:"tdp_err_pct"`
	AreaErrPct float64            `json:"area_err_pct"`
	Components map[string]float64 `json:"components"`
}

// errorSlackPct is how far, in percentage points, an error may move
// before the checked-in file must be replaced.
const errorSlackPct = 1.0

// flattenErrors keys every error of recs by target and row.
func flattenErrors(recs []errorRecord) map[string]float64 {
	out := make(map[string]float64)
	for _, r := range recs {
		out[r.Target+" / TDP"] = r.TDPErrPct
		out[r.Target+" / area"] = r.AreaErrPct
		for name, e := range r.Components {
			out[r.Target+" / component "+name] = e
		}
	}
	return out
}

// TestValidationErrorsMatchData holds every validation error, totals
// and published components, to testdata/errors.json: an error that
// moves by more than errorSlackPct, or a row that appears or
// disappears, fails. The failure prints the fresh JSON; replace the
// file with it by hand once the move is understood.
func TestValidationErrorsMatchData(t *testing.T) {
	raw, err := os.ReadFile("testdata/errors.json")
	if err != nil {
		t.Fatal(err)
	}
	var checkedIn []errorRecord
	if err := json.Unmarshal(raw, &checkedIn); err != nil {
		t.Fatalf("testdata/errors.json: %v", err)
	}
	round := func(x float64) float64 { return math.Round(x*1000) / 1000 }
	var fresh []errorRecord
	for _, target := range All() {
		r, err := Compare(target)
		if err != nil {
			t.Fatalf("%s: %v", target.Ref.Name, err)
		}
		rec := errorRecord{Target: target.Ref.Name, TDPErrPct: round(r.TDPErr),
			AreaErrPct: round(r.AreaErr), Components: make(map[string]float64)}
		for _, row := range r.Rows {
			if !math.IsNaN(row.ErrPct) {
				rec.Components[row.Component] = round(row.ErrPct)
			}
		}
		fresh = append(fresh, rec)
	}
	want, got := flattenErrors(checkedIn), flattenErrors(fresh)
	keys := make([]string, 0, len(want)+len(got))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		w, inFile := want[k]
		g, inModel := got[k]
		switch {
		case !inModel:
			t.Errorf("%s: row disappeared (checked in %+.3f%%)", k, w)
		case !inFile:
			t.Errorf("%s: new row (error %+.3f%%)", k, g)
		case math.Abs(g-w) > errorSlackPct:
			t.Errorf("%s: error %+.3f%%, checked in %+.3f%%", k, g, w)
		}
	}
	if t.Failed() {
		out, err := json.MarshalIndent(fresh, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("fresh testdata/errors.json:\n%s", out)
	}
}

// TestLeakageTrendAcrossNodes verifies a central McPAT observation: the
// leakage fraction of total power grows dramatically from 180 nm to the
// 90/65 nm generations.
func TestLeakageTrendAcrossNodes(t *testing.T) {
	frac := func(target Target) float64 {
		p, err := chip.New(target.Chip)
		if err != nil {
			t.Fatal(err)
		}
		rep := p.Report(nil)
		return rep.Leakage() / rep.Peak()
	}
	alpha := frac(Alpha21364()) // 180 nm
	t1 := frac(Niagara())       // 90 nm
	t.Logf("leakage fraction: Alpha(180nm)=%.3f  Niagara(90nm)=%.3f", alpha, t1)
	if alpha >= t1 {
		t.Errorf("leakage fraction must grow with scaling: 180nm %.3f >= 90nm %.3f", alpha, t1)
	}
	if alpha > 0.05 {
		t.Errorf("180nm leakage fraction %.3f should be small (<5%%)", alpha)
	}
	if t1 < 0.10 {
		t.Errorf("90nm leakage fraction %.3f should be substantial (>10%%)", t1)
	}
}

// TestRuntimeStatsProduceLowerPower drives the Niagara model with
// half-saturation runtime statistics and checks runtime power lands below
// the TDP, the way McPAT separates peak from runtime analysis.
func TestRuntimeStatsProduceLowerPower(t *testing.T) {
	target := Niagara()
	p, err := chip.New(target.Chip)
	if err != nil {
		t.Fatal(err)
	}
	run := p.CorePeakActivity().Scale(0.5)
	stats := &chip.Stats{
		CoreRun:    run,
		L2Reads:    1.0e9,
		L2Writes:   0.4e9,
		NoCFlits:   1.5e9,
		MCAccesses: 0.1e9,
	}
	rep := p.Report(stats)
	if rep.RuntimeDynamic <= 0 {
		t.Fatal("runtime dynamic power missing")
	}
	if rep.RuntimeDynamic >= rep.PeakDynamic {
		t.Errorf("runtime dynamic %.1f W must be below peak %.1f W", rep.RuntimeDynamic, rep.PeakDynamic)
	}
	total := rep.Runtime()
	if total >= rep.Peak() {
		t.Errorf("runtime total %.1f W must be below TDP %.1f W", total, rep.Peak())
	}
}

// TestCoreCountScaling doubles Niagara's core count and checks power and
// area respond superlinearly in total but sublinearly per core (shared
// components amortize).
func TestCoreCountScaling(t *testing.T) {
	mk := func(n int) (tdp, area float64) {
		cfg := Niagara().Chip
		cfg.NumCores = n
		p, err := chip.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep := p.Report(nil)
		return rep.Peak(), rep.Area
	}
	t4, a4 := mk(4)
	t8, a8 := mk(8)
	if t8 <= t4 || a8 <= a4 {
		t.Fatal("more cores must cost more power and area")
	}
	if t8 >= 2*t4 {
		t.Errorf("doubling cores should less than double TDP (shared L2/IO): %0.1f vs %0.1f", t8, t4)
	}
}

// TestTargetSpecsMatchReferences keeps the descriptor table and reference
// metadata in sync.
func TestTargetSpecsMatchReferences(t *testing.T) {
	for _, target := range All() {
		if target.Chip.NM != target.Ref.TechNM {
			t.Errorf("%s: chip NM %v != ref %v", target.Ref.Name, target.Chip.NM, target.Ref.TechNM)
		}
		if target.Chip.ClockHz != target.Ref.ClockHz {
			t.Errorf("%s: clock mismatch", target.Ref.Name)
		}
		if target.Chip.Vdd != target.Ref.Vdd {
			t.Errorf("%s: Vdd mismatch", target.Ref.Name)
		}
		if target.Ref.TDP <= 0 || target.Ref.AreaMM2 <= 0 {
			t.Errorf("%s: reference totals missing", target.Ref.Name)
		}
	}
}

// TestInOrderVsOoOValidationShape checks the cross-target trend the paper
// highlights: per-core power of the OoO targets far exceeds the in-order
// multithreaded targets.
func TestInOrderVsOoOValidationShape(t *testing.T) {
	perCore := func(target Target) float64 {
		p, err := chip.New(target.Chip)
		if err != nil {
			t.Fatal(err)
		}
		rep := p.Report(nil)
		return rep.Find("Cores").Peak() / float64(target.Chip.NumCores)
	}
	niagara := perCore(Niagara())
	alpha := perCore(Alpha21364())
	tulsa := perCore(XeonTulsa())
	if alpha <= 3*niagara {
		t.Errorf("Alpha core (%.1f W) should be >>3x a Niagara core (%.1f W)", alpha, niagara)
	}
	// Both OoO cores are ~40W-class: NetBurst trades its 65nm voltage
	// headroom for 2.8x the clock of the 180nm Alpha.
	if tulsa < 0.8*alpha {
		t.Errorf("3.4GHz NetBurst core (%.1f W) should be in the same class as the Alpha core (%.1f W)", tulsa, alpha)
	}
}
