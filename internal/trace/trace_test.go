package trace

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"mcpat/internal/component"
)

// fixtureEngine builds the engine and intervals from the checked-in gem5
// pair.
func fixtureEngine(t *testing.T) (*Engine, []Interval) {
	t.Helper()
	cfgF, err := os.Open("testdata/config.json")
	if err != nil {
		t.Fatal(err)
	}
	defer cfgF.Close()
	statsF, err := os.Open("testdata/stats.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer statsF.Close()
	eng, ivs, res, err := FromGem5(cfgF, statsF)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 3 {
		t.Fatalf("parsed %d intervals, want 3", len(ivs))
	}
	if res.CPUType != "DerivO3CPU" {
		t.Fatalf("cpu type %q", res.CPUType)
	}
	return eng, ivs
}

// TestRunSynthesizesOnce pins the headline contract: a full trace run
// performs zero synthesis work beyond what NewEngine already paid. The
// synthesis-cache miss counters must not move while intervals score.
func TestRunSynthesizesOnce(t *testing.T) {
	eng, ivs := fixtureEngine(t)
	before := component.Stats()
	tr, err := eng.Run(context.Background(), ivs, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := component.Stats().Delta(before).Total()
	if d.Misses != 0 || d.Hits != 0 || d.Bypassed != 0 {
		t.Fatalf("scoring intervals touched the synthesis layer: %+v", d)
	}
	if len(tr.Samples) != 3 {
		t.Fatalf("trace has %d samples", len(tr.Samples))
	}
}

// TestSamplesBitIdenticalToReport pins per-interval fidelity: each
// sample equals a standalone chip.Report over the same statistics, down
// to the last bit, including the subsystem breakdown.
func TestSamplesBitIdenticalToReport(t *testing.T) {
	eng, ivs := fixtureEngine(t)
	tr, err := eng.Run(context.Background(), ivs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, iv := range ivs {
		rep, rerr := eng.Processor().ReportE(iv.Stats)
		if rerr != nil {
			t.Fatal(rerr)
		}
		s := tr.Samples[i]
		if s.DynamicW != rep.RuntimeDynamic || s.TotalW != rep.Runtime() ||
			s.LeakageW != rep.Leakage()-rep.LeakSaved {
			t.Fatalf("interval %d: sample %+v vs report dyn=%v total=%v", i, s, rep.RuntimeDynamic, rep.Runtime())
		}
		if len(s.Subsystems) != len(rep.Children) {
			t.Fatalf("interval %d: %d subsystems vs %d children", i, len(s.Subsystems), len(rep.Children))
		}
		for j, c := range rep.Children {
			sp := s.Subsystems[j]
			if sp.Name != c.Name || sp.TotalW != c.Runtime() || sp.DynamicW != c.RuntimeDynamic {
				t.Fatalf("interval %d subsystem %s: %+v vs runtime %v", i, c.Name, sp, c.Runtime())
			}
		}
		if s.TotalW <= 0 || math.IsNaN(s.TotalW) {
			t.Fatalf("interval %d: degenerate power %v", i, s.TotalW)
		}
	}
}

// TestSummaryIntegrals pins the trace aggregates: energy is the sum of
// per-interval integrals, average power is energy over simulated time,
// and the peak interval is identified. The fixture's middle interval is
// memory-bound (lowest IPC), the short final burst is the hottest.
func TestSummaryIntegrals(t *testing.T) {
	eng, ivs := fixtureEngine(t)
	tr, err := eng.Run(context.Background(), ivs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := tr.Summary
	if sum.Intervals != 3 {
		t.Fatalf("summary intervals = %d", sum.Intervals)
	}
	var energy, secs float64
	for _, s := range tr.Samples {
		if s.EnergyJ != s.TotalW*s.DurationS {
			t.Fatalf("interval %d: energy %v != %v x %v", s.Index, s.EnergyJ, s.TotalW, s.DurationS)
		}
		energy += s.EnergyJ
		secs += s.DurationS
	}
	if sum.EnergyJ != energy || sum.SimSeconds != secs {
		t.Fatalf("summary %+v vs folded energy %v over %v s", sum, energy, secs)
	}
	if sum.AvgW != energy/secs {
		t.Fatalf("avg %v != %v", sum.AvgW, energy/secs)
	}
	if sum.PeakIndex != 2 || sum.PeakW != tr.Samples[2].TotalW {
		t.Fatalf("peak at %d (%v W); fixture interval 2 is the hottest", sum.PeakIndex, sum.PeakW)
	}
	if sum.MinW != tr.Samples[1].TotalW {
		t.Fatalf("min %v; fixture interval 1 is memory-bound", sum.MinW)
	}
	// Start times accumulate interval durations.
	if tr.Samples[1].StartS != ivs[0].Duration || tr.Samples[2].StartS != ivs[0].Duration+ivs[1].Duration {
		t.Fatalf("start times %v/%v", tr.Samples[1].StartS, tr.Samples[2].StartS)
	}
}

// TestRunCancel pins cancellation: a context canceled mid-stream stops
// the run with a context error and the engine stays usable.
func TestRunCancel(t *testing.T) {
	eng, ivs := fixtureEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	var seen int
	_, err := eng.Run(ctx, ivs, func(Sample) error {
		seen++
		cancel()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("err = %v", err)
	}
	if seen != 1 {
		t.Fatalf("scored %d intervals after cancel", seen)
	}
	// The engine survives: a fresh run completes.
	if _, err := eng.Run(context.Background(), ivs, nil); err != nil {
		t.Fatalf("engine unusable after cancel: %v", err)
	}
}

// TestOnSampleErrorStopsRun pins the streaming hook contract: an error
// from the sink aborts the run and propagates.
func TestOnSampleErrorStopsRun(t *testing.T) {
	eng, ivs := fixtureEngine(t)
	want := context.DeadlineExceeded
	_, err := eng.Run(context.Background(), ivs, func(Sample) error { return want })
	if err != want {
		t.Fatalf("err = %v", err)
	}
}

// TestWriteNDJSON pins the framing: one chip record, one per sample, one
// summary, each a standalone JSON line that round-trips.
func TestWriteNDJSON(t *testing.T) {
	eng, ivs := fixtureEngine(t)
	tr, err := eng.Run(context.Background(), ivs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var types []string
	var samples int
	for sc.Scan() {
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		types = append(types, rec.Type)
		if rec.Type == "sample" {
			if rec.Sample == nil || rec.Sample.Index != samples {
				t.Fatalf("sample record %d: %+v", samples, rec.Sample)
			}
			samples++
		}
	}
	want := []string{"chip", "sample", "sample", "sample", "summary"}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("frame sequence %v", types)
	}
}

// writeCounter counts Write calls and keeps the bytes written.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWriteRecordMatchesMarshal pins the NDJSON frame bytes: for chip,
// open-loop sample, closed-loop sample and summary records, WriteRecord
// writes exactly json.Marshal's bytes plus a newline, in one Write call.
func TestWriteRecordMatchesMarshal(t *testing.T) {
	openEng, ivs := fixtureEngine(t)
	open, err := openEng.Run(context.Background(), ivs, nil)
	if err != nil {
		t.Fatal(err)
	}
	closedEng, ivs := loopFixture(t)
	closed, err := closedEng.Run(context.Background(), ivs, nil)
	if err != nil {
		t.Fatal(err)
	}
	hdr := open.Chip
	hdr.Name = "<gem5 & co>" // exercises json.Marshal's HTML escaping
	for _, tc := range []struct {
		name string
		rec  Record
	}{
		{"chip", Record{Type: "chip", Chip: &hdr}},
		{"open-loop sample", Record{Type: "sample", Sample: &open.Samples[1]}},
		{"closed-loop sample", Record{Type: "sample", Sample: &closed.Samples[1]}},
		{"summary", Record{Type: "summary", Summary: &closed.Summary}},
	} {
		want, err := json.Marshal(tc.rec)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		var w writeCounter
		if err := WriteRecord(&w, tc.rec); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.Bytes(), want) {
			t.Errorf("%s: WriteRecord wrote\n%s\nwant\n%s", tc.name, w.Bytes(), want)
		}
		if w.writes != 1 {
			t.Errorf("%s: %d Write calls, want 1", tc.name, w.writes)
		}
	}
}

// TestWriteCSV pins the tabular shape: a header with per-subsystem
// columns and one row per interval.
func TestWriteCSV(t *testing.T) {
	eng, ivs := fixtureEngine(t)
	tr, err := eng.Run(context.Background(), ivs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(tr.Samples) {
		t.Fatalf("%d csv lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "index,start_s,duration_s,dynamic_w,leakage_w,total_w,energy_j,") {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.Contains(lines[0], "cores_w") {
		t.Fatalf("header lacks subsystem columns: %q", lines[0])
	}
	wantCols := len(strings.Split(lines[0], ","))
	for _, l := range lines[1:] {
		if len(strings.Split(l, ",")) != wantCols {
			t.Fatalf("ragged row %q", l)
		}
	}
}
