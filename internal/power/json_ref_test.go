package power

import (
	"math"
	"strconv"
)

// appendJSONFloatRef is the reference for AppendJSONFloat on a finite f:
// encoding/json's float64 encoder, strconv.AppendFloat's shortest 'f' or
// 'e' form with e-07 rewritten e-7.
func appendJSONFloatRef(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// jsonItem is the reference serialization of a report node: a struct
// carrying the wire format in its tags, encoded by encoding/json's
// reflection. Tests compare AppendJSON against json.Marshal(it.toJSON()).
type jsonItem struct {
	Name          string     `json:"name"`
	AreaMM2       float64    `json:"area_mm2"`
	PeakDynamicW  float64    `json:"peak_dynamic_w"`
	RuntimeDynW   float64    `json:"runtime_dynamic_w,omitempty"`
	SubLeakW      float64    `json:"subthreshold_leakage_w"`
	GateLeakW     float64    `json:"gate_leakage_w"`
	LeakSavedW    float64    `json:"gated_leakage_w,omitempty"`
	PeakTotalW    float64    `json:"peak_total_w"`
	RuntimeTotalW float64    `json:"runtime_total_w,omitempty"`
	Children      []jsonItem `json:"children,omitempty"`
}

func (it *Item) toJSON() jsonItem {
	j := jsonItem{
		Name:         it.Name,
		AreaMM2:      it.Area * 1e6,
		PeakDynamicW: it.PeakDynamic,
		RuntimeDynW:  it.RuntimeDynamic,
		SubLeakW:     it.SubLeak,
		GateLeakW:    it.GateLeak,
		LeakSavedW:   it.LeakSaved,
		PeakTotalW:   it.Peak(),
	}
	if it.RuntimeDynamic > 0 {
		j.RuntimeTotalW = it.Runtime()
	}
	for _, c := range it.Children {
		j.Children = append(j.Children, c.toJSON())
	}
	return j
}
