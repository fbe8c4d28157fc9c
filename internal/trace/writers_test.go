package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// discardCounter counts Write calls and drops the bytes.
type discardCounter struct{ writes int }

func (w *discardCounter) Write(p []byte) (int, error) {
	w.writes++
	return len(p), nil
}

// TestWriteRecordAllocs pins the per-record cost of the NDJSON writer:
// once its pooled buffer is warm, a chip, open- or closed-loop sample or
// summary record allocates nothing and goes out in one Write call. The
// race detector drops pooled buffers at random, so under it only the
// Write count is checked.
func TestWriteRecordAllocs(t *testing.T) {
	for name, rec := range writerRecords(t) {
		var w discardCounter
		allocs := testing.AllocsPerRun(100, func() {
			if err := WriteRecord(&w, rec); err != nil {
				t.Fatal(err)
			}
		})
		if w.writes != 101 { // AllocsPerRun adds one warm-up call
			t.Errorf("%s: %d Write calls for 101 records", name, w.writes)
		}
		if allocs != 0 && !raceEnabled {
			t.Errorf("%s: WriteRecord allocates %v times per record, want 0", name, allocs)
		}
	}
}

// writerTraces returns the fixture's open- and closed-loop traces.
func writerTraces(t *testing.T) (open, closed *Trace) {
	t.Helper()
	openEng, ivs := fixtureEngine(t)
	open, err := openEng.Run(context.Background(), ivs, nil)
	if err != nil {
		t.Fatal(err)
	}
	closedEng, ivs := loopFixture(t)
	closed, err = closedEng.Run(context.Background(), ivs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return open, closed
}

// writerRecords returns one record of each kind from the fixture's open-
// and closed-loop traces.
func writerRecords(t *testing.T) map[string]Record {
	t.Helper()
	open, closed := writerTraces(t)
	return map[string]Record{
		"chip":               {Type: "chip", Chip: &open.Chip},
		"open-loop sample":   {Type: "sample", Sample: &open.Samples[1]},
		"closed-loop sample": {Type: "sample", Sample: &closed.Samples[1]},
		"summary":            {Type: "summary", Summary: &closed.Summary},
	}
}

// fuzzFloats are the values the fuzz source picks by a leading byte
// below len(fuzzFloats): zeros of both signs, the exponent-form
// thresholds, the extremes and the values without a JSON form.
var fuzzFloats = [...]float64{0, math.Copysign(0, -1), 1, -1, 1e-7, 1e-6, 1e20, 1e21,
	5e-324, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1), 0.1, 360, 2.5e9}

// fuzzSource turns fuzz bytes into record fields.
type fuzzSource struct{ b []byte }

// float returns a fuzzFloats entry, or the next eight bytes as float64
// bits: every pattern, NaN payloads and subnormals included.
func (s *fuzzSource) float() float64 {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	if int(c) < len(fuzzFloats) || len(s.b) < 8 {
		return fuzzFloats[int(c)%len(fuzzFloats)]
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(s.b))
	s.b = s.b[8:]
	return v
}

// integer returns the next varint, or 0 when the bytes run out.
func (s *fuzzSource) integer() int {
	v, n := binary.Varint(s.b)
	if n <= 0 {
		s.b = nil
		return 0
	}
	s.b = s.b[n:]
	return int(v)
}

// FuzzRecordAppendJSON holds Record.AppendJSON and WriteRecord to
// json.Marshal on records built from arbitrary float bits, integers,
// names and subsystem counts, with each of the chip, sample and summary
// present or nil: the same bytes (a newline after them for WriteRecord),
// or both an error with the same text and nothing written.
func FuzzRecordAppendJSON(f *testing.F) {
	f.Add(uint8(0x7f), "sample", "Cores", []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 14, 15, 2, 4, 6})
	f.Add(uint8(0x01), "chip", "<gem5 & co>", []byte{15, 14, 0, 1, 0, 13})
	f.Add(uint8(0x04), "summary", "", []byte{3, 4, 5, 6, 7, 8, 9, 0, 0, 1, 0})
	f.Add(uint8(0x0a), "sample", "L2 \xff", []byte{255, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 0, 0, 0, 11, 0, 1})
	f.Add(uint8(0x22), "sample", "NoC", []byte{12})
	// Negative and signed-zero omitempty fields: -0 is left out, -1 and
	// negative counts are written.
	f.Add(uint8(0x1a), "sample", "Cores", []byte{0, 0, 1, 2, 3, 4, 5, 1, 3})
	f.Add(uint8(0x04), "summary", "", []byte{3, 3, 4, 5, 6, 7, 3, 3, 1, 5})
	f.Add(uint8(0x00), "error", "x", []byte(nil))
	f.Fuzz(func(t *testing.T, parts uint8, typ, name string, data []byte) {
		src := &fuzzSource{b: data}
		rec := Record{Type: typ}
		if parts&1 != 0 {
			rec.Chip = &Header{Name: name, NM: src.float(), ClockHz: src.float(), NumCores: src.integer(),
				TDPW: src.float(), AreaMM2: src.float(), Intervals: src.integer()}
		}
		if parts&2 != 0 {
			s := &Sample{Index: src.integer(), StartS: src.float(), DurationS: src.float(), DynamicW: src.float(),
				LeakageW: src.float(), TotalW: src.float(), EnergyJ: src.float(), TemperatureK: src.float(),
				FreqHz: src.float(), Throttled: parts&8 != 0}
			if n := int(parts >> 4); n > 0 {
				s.Subsystems = make([]SubsystemPower, n-1) // n = 1: empty, not nil
				for j := range s.Subsystems {
					s.Subsystems[j] = SubsystemPower{Name: name[:j*len(name)/n], DynamicW: src.float(),
						LeakageW: src.float(), TotalW: src.float()}
				}
			}
			rec.Sample = s
		}
		if parts&4 != 0 {
			rec.Summary = &Summary{Intervals: src.integer(), SimSeconds: src.float(), EnergyJ: src.float(),
				AvgW: src.float(), PeakW: src.float(), PeakIndex: src.integer(), MinW: src.float(),
				MaxTempK: src.float(), FinalTempK: src.float(), ThrottledIntervals: src.integer()}
		}
		want, wantErr := json.Marshal(rec)
		prefix := []byte("prefix")
		got, err := rec.AppendJSON(prefix)
		var w writeCounter
		werr := WriteRecord(&w, rec)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() || werr == nil || werr.Error() != wantErr.Error() {
				t.Fatalf("json.Marshal: %v; AppendJSON: %v; WriteRecord: %v", wantErr, err, werr)
			}
			if string(got) != "prefix" || w.writes != 0 {
				t.Fatalf("a failed encode appended %q and made %d Write calls", got[len(prefix):], w.writes)
			}
			return
		}
		if err != nil || werr != nil {
			t.Fatalf("AppendJSON: %v; WriteRecord: %v; json.Marshal succeeded", err, werr)
		}
		if !bytes.Equal(got[len(prefix):], want) || string(got[:len(prefix)]) != "prefix" {
			t.Fatalf("AppendJSON\n%s\njson.Marshal\n%s", got, want)
		}
		if !bytes.Equal(w.Bytes(), append(want, '\n')) || w.writes != 1 {
			t.Fatalf("WriteRecord wrote %q in %d calls, want %q in 1", w.Bytes(), w.writes, want)
		}
	})
}

// writeCSVRef is the reference for WriteCSV, its former body: each row
// formatted with fmt's %g and the subsystems looked up in a per-row map.
func (t *Trace) writeCSVRef(w io.Writer) error {
	cols := []string{"index", "start_s", "duration_s", "dynamic_w", "leakage_w", "total_w", "energy_j"}
	thermal := t.hasThermal()
	if thermal {
		cols = append(cols, "temperature_k", "freq_hz", "throttled")
	}
	var subs []string
	if len(t.Samples) > 0 {
		for _, sp := range t.Samples[0].Subsystems {
			subs = append(subs, sp.Name)
			cols = append(cols, csvName(sp.Name)+"_w")
		}
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for _, s := range t.Samples {
		row := fmt.Sprintf("%d,%g,%g,%g,%g,%g,%g",
			s.Index, s.StartS, s.DurationS, s.DynamicW, s.LeakageW, s.TotalW, s.EnergyJ)
		if thermal {
			throttled := 0
			if s.Throttled {
				throttled = 1
			}
			row += fmt.Sprintf(",%g,%g,%d", s.TemperatureK, s.FreqHz, throttled)
		}
		byName := make(map[string]float64, len(s.Subsystems))
		for _, sp := range s.Subsystems {
			byName[sp.Name] = sp.TotalW
		}
		for _, name := range subs {
			row += fmt.Sprintf(",%g", byName[name])
		}
		if _, err := fmt.Fprintln(w, row); err != nil {
			return err
		}
	}
	return nil
}

// ragged returns n samples whose subsystem lists differ from the first
// sample's: reordered, missing a name, repeating one, adding one, or
// empty. The first sample lists "Cores" twice, so its column appears
// twice. The values cover %g's exponent forms, -0, NaN and ±Inf.
func ragged(n int, thermal bool) *Trace {
	lists := [][]SubsystemPower{
		{{Name: "Cores", TotalW: 1.5}, {Name: "L2 Cache", TotalW: 0.25}, {Name: "Cores", TotalW: 2.5}, {Name: "NoC", TotalW: 1e-7}},
		{{Name: "NoC", TotalW: 3}, {Name: "Cores", TotalW: 4.125}},
		{{Name: "L2 Cache", TotalW: 1e21}, {Name: "L2 Cache", TotalW: -2}, {Name: "MC", TotalW: 9}, {Name: "NoC", TotalW: math.Copysign(0, -1)}},
		nil,
		{{Name: "Cores", TotalW: math.NaN()}, {Name: "NoC", TotalW: math.Inf(-1)}, {Name: "L2 Cache", TotalW: 123456789012345678}},
	}
	tr := &Trace{}
	for i := range n {
		s := Sample{Index: i, StartS: float64(i) * 1e-3, DurationS: 1e-3, DynamicW: 1 / 3.0, LeakageW: 2e-5,
			TotalW: 0.1 + 0.2, EnergyJ: 1e-20 * float64(i+1), Subsystems: lists[i%len(lists)]}
		if thermal {
			s.TemperatureK, s.FreqHz, s.Throttled = 330.5, 2e9, i%2 == 1
		}
		tr.Samples = append(tr.Samples, s)
	}
	return tr
}

// TestWriteCSVMatchesReference holds WriteCSV to its fmt reference, byte
// for byte: the fixture's open- and closed-loop traces, and ragged
// subsystem lists, whose totals must read 0 for a missing name and the
// last value for a repeated one, as the reference's map lookup reads
// them.
func TestWriteCSVMatchesReference(t *testing.T) {
	open, closed := writerTraces(t)
	traces := map[string]*Trace{
		"empty":          {},
		"ragged open":    ragged(10, false),
		"ragged closed":  ragged(10, true),
		"fixture open":   open,
		"fixture closed": closed,
	}
	for name, tr := range traces {
		var got, want bytes.Buffer
		if err := tr.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if err := tr.writeCSVRef(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s:\n got %s\nwant %s", name, got.Bytes(), want.Bytes())
		}
	}
}

// TestWriteCSVAllocs pins that WriteCSV's allocations do not grow with
// the number of rows: its one row buffer is sized for the widest row.
func TestWriteCSVAllocs(t *testing.T) {
	allocs := func(rows int) float64 {
		tr := ragged(rows, true)
		return testing.AllocsPerRun(20, func() {
			if err := tr.WriteCSV(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(10), allocs(1000); many != few {
		t.Errorf("WriteCSV allocates %v times for 10 rows and %v for 1000", few, many)
	}
}
