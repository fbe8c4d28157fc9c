package trace

import (
	"io"
	"strconv"
	"strings"
	"sync"

	"mcpat/internal/power"
)

// AppendJSON appends the compact JSON form of the record to dst: the
// bytes json.Marshal writes for it. Keys follow struct order, numbers
// and strings are written as encoding/json writes them, and the
// omitempty fields are left out when zero: a nil chip, sample or
// summary, the open-loop thermal fields, an unthrottled flag, an empty
// subsystem list, an unknown interval count and no throttled intervals.
// A NaN or infinite quantity has no JSON form: AppendJSON then returns
// dst unchanged and encoding/json's *UnsupportedValueError.
func (r *Record) AppendJSON(dst []byte) ([]byte, error) {
	b := append(dst, `{"type":`...)
	b = power.AppendJSONString(b, r.Type)
	var err error
	num := func(key string, v float64) {
		if err == nil {
			b = append(b, key...)
			b, err = power.AppendJSONFloat(b, v)
		}
	}
	integer := func(key string, v int) {
		b = strconv.AppendInt(append(b, key...), int64(v), 10)
	}
	if h := r.Chip; h != nil {
		b = append(b, `,"chip":{"name":`...)
		b = power.AppendJSONString(b, h.Name)
		num(`,"nm":`, h.NM)
		num(`,"clock_hz":`, h.ClockHz)
		integer(`,"num_cores":`, h.NumCores)
		num(`,"tdp_w":`, h.TDPW)
		num(`,"area_mm2":`, h.AreaMM2)
		if h.Intervals != 0 {
			integer(`,"intervals":`, h.Intervals)
		}
		b = append(b, '}')
	}
	if s := r.Sample; s != nil {
		integer(`,"sample":{"index":`, s.Index)
		num(`,"start_s":`, s.StartS)
		num(`,"duration_s":`, s.DurationS)
		num(`,"dynamic_w":`, s.DynamicW)
		num(`,"leakage_w":`, s.LeakageW)
		num(`,"total_w":`, s.TotalW)
		num(`,"energy_j":`, s.EnergyJ)
		if s.TemperatureK != 0 {
			num(`,"temperature_k":`, s.TemperatureK)
		}
		if s.FreqHz != 0 {
			num(`,"freq_hz":`, s.FreqHz)
		}
		if s.Throttled {
			b = append(b, `,"throttled":true`...)
		}
		if len(s.Subsystems) > 0 {
			b = append(b, `,"subsystems":[`...)
			for i := range s.Subsystems {
				p := &s.Subsystems[i]
				if i > 0 {
					b = append(b, ',')
				}
				b = append(b, `{"name":`...)
				b = power.AppendJSONString(b, p.Name)
				num(`,"dynamic_w":`, p.DynamicW)
				num(`,"leakage_w":`, p.LeakageW)
				num(`,"total_w":`, p.TotalW)
				b = append(b, '}')
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	if m := r.Summary; m != nil {
		integer(`,"summary":{"intervals":`, m.Intervals)
		num(`,"sim_seconds":`, m.SimSeconds)
		num(`,"energy_j":`, m.EnergyJ)
		num(`,"avg_w":`, m.AvgW)
		num(`,"peak_w":`, m.PeakW)
		integer(`,"peak_index":`, m.PeakIndex)
		num(`,"min_w":`, m.MinW)
		if m.MaxTempK != 0 {
			num(`,"max_temp_k":`, m.MaxTempK)
		}
		if m.FinalTempK != 0 {
			num(`,"final_temp_k":`, m.FinalTempK)
		}
		if m.ThrottledIntervals != 0 {
			integer(`,"throttled_intervals":`, m.ThrottledIntervals)
		}
		b = append(b, '}')
	}
	if err != nil {
		return dst, err
	}
	return append(b, '}'), nil
}

// recordBufs holds WriteRecord's encode buffers, so a warm record
// allocates nothing.
var recordBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// WriteRecord writes one NDJSON frame (a single line of JSON) in one
// Write call: the bytes of json.Marshal plus a newline, appended into a
// pooled buffer. A record that cannot be encoded writes nothing.
func WriteRecord(w io.Writer, rec Record) error {
	bp := recordBufs.Get().(*[]byte)
	b, err := rec.AppendJSON((*bp)[:0])
	if err == nil {
		b = append(b, '\n')
		_, err = w.Write(b)
	}
	*bp = b[:0]
	recordBufs.Put(bp)
	return err
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
// first sample's breakdown; a row without that subsystem reads 0, and of
// a name listed twice the last counts). Open-loop traces keep the
// original column set exactly, so existing consumers see no change.
// Numbers are written as %g writes them. Each row is appended into one
// reused buffer and written with one Write call.
func (t *Trace) WriteCSV(w io.Writer) error {
	b := []byte("index,start_s,duration_s,dynamic_w,leakage_w,total_w,energy_j")
	thermal := t.hasThermal()
	if thermal {
		b = append(b, ",temperature_k,freq_hz,throttled"...)
	}
	var subs []string
	if len(t.Samples) > 0 {
		for _, sp := range t.Samples[0].Subsystems {
			subs = append(subs, sp.Name)
			b = append(append(append(b, ','), csvName(sp.Name)...), "_w"...)
		}
	}
	b = append(b, '\n')
	if _, err := w.Write(b); err != nil {
		return err
	}
	// A row is an index and at most 10+len(subs) fields of up to 25
	// bytes: a comma and %g's longest, -2.2250738585072014e-308. One
	// buffer of that size holds every row.
	b = make([]byte, 0, 20+25*(10+len(subs)))
	num := func(v float64) {
		b = strconv.AppendFloat(append(b, ','), v, 'g', -1, 64)
	}
	for i := range t.Samples {
		s := &t.Samples[i]
		b = strconv.AppendInt(b[:0], int64(s.Index), 10)
		num(s.StartS)
		num(s.DurationS)
		num(s.DynamicW)
		num(s.LeakageW)
		num(s.TotalW)
		num(s.EnergyJ)
		if thermal {
			num(s.TemperatureK)
			num(s.FreqHz)
			if s.Throttled {
				b = append(b, ",1"...)
			} else {
				b = append(b, ",0"...)
			}
		}
		for _, name := range subs {
			num(subsystemTotalW(s.Subsystems, name))
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// subsystemTotalW returns the total watts of the last subsystem named
// name in ps, or 0 if none is.
func subsystemTotalW(ps []SubsystemPower, name string) float64 {
	for i := len(ps) - 1; i >= 0; i-- {
		if ps[i].Name == name {
			return ps[i].TotalW
		}
	}
	return 0
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
