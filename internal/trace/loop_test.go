package trace

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mcpat/internal/component"
	"mcpat/internal/m5compat"
	"mcpat/internal/thermal"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// loopFixture arms the fixture engine with a deterministic closed loop:
// whole-die package, quasi-static steps, fixed-schedule governor.
func loopFixture(t *testing.T) (*Engine, []Interval) {
	t.Helper()
	eng, ivs := fixtureEngine(t)
	if err := eng.EnableLoop(LoopOptions{
		Package:  thermal.PackageSpec{RthetaJA: 0.8, AmbientK: 318},
		Governor: Schedule{FreqFrac: []float64{1, 0.8, 1}},
	}); err != nil {
		t.Fatal(err)
	}
	return eng, ivs
}

// TestLoopThermalFeedback pins the loop's observable behavior: every
// closed-loop sample carries a positive hotspot temperature and an
// applied frequency, the scheduled interval is flagged throttled with
// its duration stretched by the inverse frequency fraction, and the
// summary aggregates the thermal columns.
func TestLoopThermalFeedback(t *testing.T) {
	eng, ivs := loopFixture(t)
	tr, err := eng.Run(context.Background(), ivs, nil)
	if err != nil {
		t.Fatal(err)
	}
	nominal := eng.Processor().Cfg.ClockHz
	for i, s := range tr.Samples {
		if s.TemperatureK <= 0 {
			t.Fatalf("sample %d: no temperature", i)
		}
		if s.FreqHz <= 0 {
			t.Fatalf("sample %d: no frequency", i)
		}
	}
	if tr.Samples[0].Throttled || tr.Samples[2].Throttled {
		t.Error("full-frequency intervals must not be flagged throttled")
	}
	s1 := tr.Samples[1]
	if !s1.Throttled || s1.FreqHz != 0.8*nominal {
		t.Fatalf("interval 1 should run at 0.8x nominal: %+v", s1)
	}
	if want := ivs[1].Duration / 0.8; math.Abs(s1.DurationS-want) > want*1e-12 {
		t.Errorf("throttled duration %.9e, want %.9e (stretched by 1/0.8)", s1.DurationS, want)
	}
	sum := tr.Summary
	if sum.ThrottledIntervals != 1 {
		t.Errorf("summary counts %d throttled intervals, want 1", sum.ThrottledIntervals)
	}
	if sum.FinalTempK != tr.Samples[2].TemperatureK {
		t.Error("summary final temperature must be the last sample's")
	}
	maxT := 0.0
	for _, s := range tr.Samples {
		if s.TemperatureK > maxT {
			maxT = s.TemperatureK
		}
	}
	if sum.MaxTempK != maxT {
		t.Errorf("summary max temperature %.3f, want %.3f", sum.MaxTempK, maxT)
	}
}

// TestLoopTemperatureFeedsLeakage pins the feedback itself: the same
// interval scored via the loop at an elevated temperature must leak more
// than the open-loop score of identical statistics.
func TestLoopTemperatureFeedsLeakage(t *testing.T) {
	eng, ivs := fixtureEngine(t)
	open, err := eng.Run(context.Background(), ivs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A hot start (well above the 360 K reference) with thermal feedback.
	if err := eng.EnableLoop(LoopOptions{
		Package:      thermal.PackageSpec{RthetaJA: 0.8, AmbientK: 318, TimeConstS: 1},
		InitialTempK: 400,
	}); err != nil {
		t.Fatal(err)
	}
	closed, err := eng.Run(context.Background(), ivs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if closed.Samples[0].LeakageW <= open.Samples[0].LeakageW {
		t.Errorf("400 K leakage %.3f W must exceed reference-temperature leakage %.3f W",
			closed.Samples[0].LeakageW, open.Samples[0].LeakageW)
	}
	// Dynamic power is temperature-independent: identical bits.
	if closed.Samples[0].DynamicW != open.Samples[0].DynamicW {
		t.Error("dynamic power must not move with temperature")
	}
	// Disarming restores the open-loop bits exactly.
	eng.DisableLoop()
	again, err := eng.Run(context.Background(), ivs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range open.Samples {
		if again.Samples[i].TotalW != open.Samples[i].TotalW {
			t.Fatalf("interval %d: DisableLoop did not restore open-loop scoring", i)
		}
	}
}

// TestLoopSynthesizesOnce extends the headline trace contract to the
// closed loop: arming the loop (a heap report plus a floorplan) and
// running the whole feedback trace must cause zero synthesis-layer
// activity beyond the engine build.
func TestLoopSynthesizesOnce(t *testing.T) {
	eng, ivs := fixtureEngine(t)
	before := component.Stats()
	if err := eng.EnableLoop(LoopOptions{
		Package:      thermal.PackageSpec{RthetaJA: 0.8, MaxTjK: 360, TimeConstS: 5e-4},
		UseFloorplan: true,
		Governor:     ThermalHeadroom{},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), ivs, nil); err != nil {
		t.Fatal(err)
	}
	d := component.Stats().Delta(before).Total()
	if d.Misses != 0 || d.Hits != 0 || d.Bypassed != 0 {
		t.Fatalf("closed loop touched the synthesis layer: %+v", d)
	}
}

// TestLoopFloorplanHotspot: with floorplan-derived per-block resistances
// the hotspot must run at or above the whole-die temperature for the
// same trace — a dense block concentrates its power in less area.
func TestLoopFloorplanHotspot(t *testing.T) {
	pkg := thermal.PackageSpec{RthetaJA: 0.8, AmbientK: 318}

	whole, ivs := fixtureEngine(t)
	if err := whole.EnableLoop(LoopOptions{Package: pkg}); err != nil {
		t.Fatal(err)
	}
	trWhole, err := whole.Run(context.Background(), ivs, nil)
	if err != nil {
		t.Fatal(err)
	}

	planned, ivs2 := fixtureEngine(t)
	if err := planned.EnableLoop(LoopOptions{Package: pkg, UseFloorplan: true}); err != nil {
		t.Fatal(err)
	}
	trPlan, err := planned.Run(context.Background(), ivs2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range trWhole.Samples {
		if trPlan.Samples[i].TemperatureK < trWhole.Samples[i].TemperatureK-1e-9 {
			t.Errorf("interval %d: floorplan hotspot %.3f K below whole-die %.3f K",
				i, trPlan.Samples[i].TemperatureK, trWhole.Samples[i].TemperatureK)
		}
	}
}

// TestGovernorHeadroom pins the proportional throttle's envelope.
func TestGovernorHeadroom(t *testing.T) {
	g := ThermalHeadroom{}
	in := GovernorInput{MaxTjK: 360, NominalHz: 2e9}

	in.TempK = 340 // well under the 355 K default setpoint
	if d := g.Decide(in); d.FreqFrac != 1 || d.VddFrac != 1 {
		t.Errorf("cool chip must run at nominal: %+v", d)
	}
	in.TempK = 357 // 2 K over: shed 0.1
	d := g.Decide(in)
	if math.Abs(d.FreqFrac-0.9) > 1e-12 {
		t.Errorf("2 K over setpoint: freq %.4f, want 0.90", d.FreqFrac)
	}
	if d.VddFrac >= 1 || d.VddFrac < DefaultVddFloorFrac {
		t.Errorf("derived supply %.4f outside (floor, 1)", d.VddFrac)
	}
	in.TempK = 420 // far over: clamp at the floor
	if d := g.Decide(in); d.FreqFrac != 0.5 {
		t.Errorf("deep overtemperature must clamp at the 0.5 floor: %+v", d)
	}
	// No junction limit and no explicit target: never throttles.
	free := GovernorInput{TempK: 500}
	if d := g.Decide(free); d.FreqFrac != 1 {
		t.Errorf("no limit, no setpoint: must stay nominal, got %+v", d)
	}
	// Explicit setpoint works without a junction limit.
	g2 := ThermalHeadroom{TargetK: 350}
	if d := g2.Decide(GovernorInput{TempK: 352}); d.FreqFrac >= 1 {
		t.Error("explicit setpoint must throttle without a junction limit")
	}
}

// TestGovernorSchedule pins playback: indexed entries, last-value hold,
// and supply derivation.
func TestGovernorSchedule(t *testing.T) {
	g := Schedule{FreqFrac: []float64{1, 0.6}}
	if d := g.Decide(GovernorInput{Index: 0}); d.FreqFrac != 1 {
		t.Errorf("interval 0: %+v", d)
	}
	d := g.Decide(GovernorInput{Index: 1})
	if d.FreqFrac != 0.6 {
		t.Errorf("interval 1: %+v", d)
	}
	if want := VddForFreq(0.6, 0); d.VddFrac != want {
		t.Errorf("derived supply %.4f, want %.4f", d.VddFrac, want)
	}
	if d := g.Decide(GovernorInput{Index: 7}); d.FreqFrac != 0.6 {
		t.Errorf("past the end the last entry holds: %+v", d)
	}
	explicit := Schedule{FreqFrac: []float64{0.5}, VddFrac: []float64{0.9}}
	if d := explicit.Decide(GovernorInput{Index: 0}); d.VddFrac != 0.9 {
		t.Errorf("explicit supply schedule ignored: %+v", d)
	}
}

// TestNewGovernor pins the shared policy-name mapping.
func TestNewGovernor(t *testing.T) {
	for _, name := range []string{"", "none"} {
		if g, err := NewGovernor(name, 0, nil); err != nil || g != nil {
			t.Errorf("%q: want nil governor, got %v, %v", name, g, err)
		}
	}
	if g, err := NewGovernor("headroom", 350, nil); err != nil {
		t.Fatal(err)
	} else if g.(ThermalHeadroom).TargetK != 350 {
		t.Error("headroom setpoint not threaded")
	}
	if _, err := NewGovernor("schedule", 0, nil); err == nil {
		t.Error("schedule without entries must fail")
	}
	if _, err := NewGovernor("schedule", 0, []float64{1.5}); err == nil {
		t.Error("out-of-range schedule entry must fail")
	}
	if g, err := NewGovernor("schedule", 0, []float64{0.7}); err != nil || g == nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	if _, err := NewGovernor("ondemand", 0, nil); err == nil {
		t.Error("unknown policy must fail")
	}
}

// TestWriterGolden pins the CSV output byte-for-byte in both modes: the
// open-loop table must not change shape (no thermal columns), and the
// closed-loop table must carry temperature_k/freq_hz/throttled between
// the fixed and per-subsystem columns. Regenerate with -update.
func TestWriterGolden(t *testing.T) {
	run := func(t *testing.T, closed bool) string {
		eng, ivs := fixtureEngine(t)
		if closed {
			if err := eng.EnableLoop(LoopOptions{
				Package:  thermal.PackageSpec{RthetaJA: 0.8, AmbientK: 318},
				Governor: Schedule{FreqFrac: []float64{1, 0.8, 1}},
			}); err != nil {
				t.Fatal(err)
			}
		}
		tr, err := eng.Run(context.Background(), ivs, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, tc := range []struct {
		name, file string
		closed     bool
	}{
		{"open", "golden_open.csv", false},
		{"closed", "golden_closed.csv", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := run(t, tc.closed)
			path := filepath.Join("testdata", tc.file)
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s differs from golden (run with -update to regenerate):\n%s", tc.file, got)
			}
			header := strings.SplitN(got, "\n", 2)[0]
			if tc.closed != strings.Contains(header, "temperature_k") {
				t.Errorf("thermal columns present=%v, want %v: %q", !tc.closed, tc.closed, header)
			}
		})
	}
}

// TestNDJSONThermalFields: closed-loop NDJSON samples carry the thermal
// fields, open-loop samples omit them entirely.
func TestNDJSONThermalFields(t *testing.T) {
	openEng, ivs := fixtureEngine(t)
	openTr, err := openEng.Run(context.Background(), ivs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := openTr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "temperature_k") {
		t.Error("open-loop NDJSON must omit thermal fields")
	}

	closedEng, ivs2 := loopFixture(t)
	closedTr, err := closedEng.Run(context.Background(), ivs2, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := closedTr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"temperature_k"`) || !strings.Contains(out, `"freq_hz"`) ||
		!strings.Contains(out, `"throttled":true`) {
		t.Errorf("closed-loop NDJSON lacks thermal fields:\n%s", out)
	}
	if !strings.Contains(out, `"max_temp_k"`) || !strings.Contains(out, `"throttled_intervals":1`) {
		t.Errorf("closed-loop summary lacks thermal aggregates:\n%s", out)
	}
}

// TestLoopAllocBudget enforces the hot-path budgets: an open-loop
// interval (score plus sample stamping) costs at most one
// allocation, and the closed-loop per-interval path (governor, retune,
// score, thermal step, sample stamping) at most two more than the
// open-loop path.
func TestLoopAllocBudget(t *testing.T) {
	openEng, ivs := fixtureEngine(t)
	iv := ivs[0]
	openAllocs := testing.AllocsPerRun(200, func() {
		if _, err := openEng.Score(0, 0, iv); err != nil {
			t.Fatal(err)
		}
	})

	closedEng, _ := loopFixture(t)
	closedAllocs := testing.AllocsPerRun(200, func() {
		iv2, ff := closedEng.loopBegin(0, iv)
		s, err := closedEng.Score(0, 0, iv2)
		if err != nil {
			t.Fatal(err)
		}
		if err := closedEng.loopEnd(&s, ff); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/interval: open %.1f, closed %.1f", openAllocs, closedAllocs)
	if openAllocs > 1 {
		t.Errorf("open-loop interval costs %.1f allocs, budget is 1", openAllocs)
	}
	if closedAllocs > openAllocs+2 {
		t.Errorf("closed-loop interval costs %.1f allocs, budget is open-loop %.1f + 2", closedAllocs, openAllocs)
	}
}

// seededStream writes a 48-dump stats.txt stream from the fixture's
// first dump: alternating hot phases (counters scaled 1.0-1.3) and idle
// phases (0.02-0.1) of 2-7 dumps each, with a +-4% jitter per counter.
// Interval length and clock counters keep the fixture's values.
func seededStream(t *testing.T, seed int64) []byte {
	t.Helper()
	f, err := os.Open("testdata/stats.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dumps, err := m5compat.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	base := dumps[0]
	names := make([]string, 0, len(base))
	for n := range base {
		names = append(names, n)
	}
	sort.Strings(names)
	r := rand.New(rand.NewSource(seed))
	var b bytes.Buffer
	hot := true
	for n := 0; n < 48; hot = !hot {
		lo, hi := 0.02, 0.1
		if hot {
			lo, hi = 1, 1.3
		}
		scale := lo + (hi-lo)*r.Float64()
		for k := 2 + r.Intn(6); k > 0 && n < 48; k-- {
			fmt.Fprintln(&b, "---------- Begin Simulation Statistics ----------")
			for _, name := range names {
				v := base[name]
				if name != "sim_seconds" && name != "sim_ticks" && !strings.HasSuffix(name, ".numCycles") {
					v = math.Round(v * scale * (0.96 + 0.08*r.Float64()))
				}
				fmt.Fprintf(&b, "%-46s %16s # statistic\n", name, strconv.FormatFloat(v, 'f', -1, 64))
			}
			n++
		}
	}
	return b.Bytes()
}

// TestEnergyIsPowerTimeIntegral checks the trace's energy accounting
// around the closed loop (TestSummaryIntegrals covers the open loop): a
// seeded 48-dump stream with the headroom governor, which must throttle
// at least one interval. Exactly: each interval's energy is its power
// times its duration, each start time is the running sum of the
// durations before it, and the summary's energy, seconds, average power
// and throttled count are the folds of the samples. To 1e-12 relative:
// a throttled interval lasts the dump's seconds over the applied
// frequency fraction, and the subsystems' total watts sum to the
// sample's.
func TestEnergyIsPowerTimeIntegral(t *testing.T) {
	eng, _ := fixtureEngine(t)
	clock := eng.Processor().Cfg.ClockHz
	dumps, err := m5compat.Parse(bytes.NewReader(seededStream(t, 27)))
	if err != nil {
		t.Fatal(err)
	}
	ivs, err := IntervalsFromDumps(dumps, clock, eng.Processor().Cfg.NumCores)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.EnableLoop(LoopOptions{
		Package:      thermal.PackageSpec{RthetaJA: 0.8, AmbientK: 318, MaxTjK: 360, TimeConstS: 5e-4},
		UseFloorplan: true,
		Governor:     ThermalHeadroom{},
	}); err != nil {
		t.Fatal(err)
	}
	tr, err := eng.Run(context.Background(), ivs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Samples) != len(ivs) {
		t.Fatalf("%d samples for %d intervals", len(tr.Samples), len(ivs))
	}
	rel := func(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }
	var start, energy float64
	throttled := 0
	for i, s := range tr.Samples {
		if s.EnergyJ != s.TotalW*s.DurationS {
			t.Errorf("interval %d: energy %v J, power x duration %v J", i, s.EnergyJ, s.TotalW*s.DurationS)
		}
		if s.StartS != start {
			t.Errorf("interval %d: starts at %v s, earlier durations sum to %v s", i, s.StartS, start)
		}
		start += s.DurationS
		energy += s.EnergyJ
		want := ivs[i].Duration
		if s.Throttled {
			throttled++
			want /= s.FreqHz / clock
		}
		if s.DurationS != want && rel(s.DurationS, want) > 1e-12 {
			t.Errorf("interval %d: lasts %v s at %v Hz, want %v s", i, s.DurationS, s.FreqHz, want)
		}
		var sub float64
		for _, p := range s.Subsystems {
			sub += p.TotalW
		}
		if rel(sub, s.TotalW) > 1e-12 {
			t.Errorf("interval %d: subsystems sum to %v W, sample %v W", i, sub, s.TotalW)
		}
	}
	if throttled == 0 {
		t.Error("the headroom governor throttled no interval of the hot/idle stream")
	}
	sum := tr.Summary
	if sum.EnergyJ != energy || sum.SimSeconds != start || sum.AvgW != energy/start {
		t.Errorf("summary %v J over %v s at %v W, samples fold to %v J over %v s at %v W",
			sum.EnergyJ, sum.SimSeconds, sum.AvgW, energy, start, energy/start)
	}
	if sum.ThrottledIntervals != throttled {
		t.Errorf("summary counts %d throttled intervals, samples %d", sum.ThrottledIntervals, throttled)
	}
	t.Logf("%d intervals, %d throttled, %.6f J over %.6f s", len(tr.Samples), throttled, sum.EnergyJ, sum.SimSeconds)
}
