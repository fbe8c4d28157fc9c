package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// WriteRecord writes one NDJSON frame (a single line of JSON) in one
// Write call: the bytes of json.Marshal plus a newline, encoded in the
// encoder's pooled buffer rather than a fresh copy.
func WriteRecord(w io.Writer, rec Record) error {
	return json.NewEncoder(w).Encode(rec)
}

// WriteNDJSON streams the materialized trace in the same framing the
// service emits: one chip record, one record per sample, one summary.
func (t *Trace) WriteNDJSON(w io.Writer) error {
	h := t.Chip
	if err := WriteRecord(w, Record{Type: "chip", Chip: &h}); err != nil {
		return err
	}
	for i := range t.Samples {
		if err := WriteRecord(w, Record{Type: "sample", Sample: &t.Samples[i]}); err != nil {
			return err
		}
	}
	s := t.Summary
	return WriteRecord(w, Record{Type: "summary", Summary: &s})
}

// WriteCSV writes the trace as a spreadsheet-friendly table: one row per
// interval, fixed power/energy columns, then — only for closed-loop
// traces — the thermal/DVFS columns (temperature_k, freq_hz, throttled),
// then one total-watts column per top-level subsystem (taken from the
// first sample's breakdown). Open-loop traces keep the original column
// set exactly, so existing consumers see no change.
func (t *Trace) WriteCSV(w io.Writer) error {
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

// hasThermal reports whether the trace was produced by a closed-loop run
// (every closed-loop sample carries a positive hotspot temperature).
func (t *Trace) hasThermal() bool {
	return len(t.Samples) > 0 && t.Samples[0].TemperatureK > 0
}

// csvName lowercases a subsystem name into a column-safe slug.
func csvName(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
