package power

import (
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
)

// AppendJSON appends the compact JSON form of the subtree to dst. It is
// the one definition of the report's wire format: power in watts and
// area in mm^2, the units external tooling expects, with the keys
//
//	name, area_mm2, peak_dynamic_w, runtime_dynamic_w, subthreshold_leakage_w,
//	gate_leakage_w, gated_leakage_w, peak_total_w, runtime_total_w, children
//
// in that order. runtime_dynamic_w and gated_leakage_w are omitted when
// zero, runtime_total_w unless runtime dynamic power is positive and the
// total nonzero, and children when there are none. Numbers and strings
// are written exactly as encoding/json writes them. A NaN or infinite
// quantity has no JSON form: AppendJSON then returns dst unchanged and
// encoding/json's *UnsupportedValueError.
func (it *Item) AppendJSON(dst []byte) ([]byte, error) {
	b := append(dst, `{"name":`...)
	b = AppendJSONString(b, it.Name)
	var err error
	num := func(key string, v float64) {
		if err == nil {
			b = append(b, key...)
			b, err = AppendJSONFloat(b, v)
		}
	}
	num(`,"area_mm2":`, it.Area*1e6)
	num(`,"peak_dynamic_w":`, it.PeakDynamic)
	if it.RuntimeDynamic != 0 {
		num(`,"runtime_dynamic_w":`, it.RuntimeDynamic)
	}
	num(`,"subthreshold_leakage_w":`, it.SubLeak)
	num(`,"gate_leakage_w":`, it.GateLeak)
	if it.LeakSaved != 0 {
		num(`,"gated_leakage_w":`, it.LeakSaved)
	}
	num(`,"peak_total_w":`, it.Peak())
	if it.RuntimeDynamic > 0 {
		if rt := it.Runtime(); rt != 0 {
			num(`,"runtime_total_w":`, rt)
		}
	}
	if err != nil {
		return dst, err
	}
	if len(it.Children) > 0 {
		b = append(b, `,"children":[`...)
		for i, c := range it.Children {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = c.AppendJSON(b); err != nil {
				return dst, err
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// AppendJSONFloat appends f as encoding/json writes a float64: the
// shortest representation that reads back as f, in exponent form below
// 1e-6 and from 1e21 up (with e-07 written e-7), and -0 as -0. NaN and
// ±Inf have no JSON form; for them it returns dst unchanged and
// encoding/json's *UnsupportedValueError.
func AppendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	return appendFloat(dst, f), nil
}

// AppendJSONString appends s as a JSON string, exactly as encoding/json
// writes it. Printable ASCII without '"', '\\', '<', '>' or '&' is copied
// as is; any other string goes through json.Marshal, so the HTML,
// U+2028/U+2029 and invalid-UTF-8 escaping stay encoding/json's own.
// json.Marshal gets a copy, so s does not escape: a caller's struct that
// holds it can stay on the caller's stack.
func AppendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(strings.Clone(s)) // marshaling a string cannot fail
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// MarshalJSON serializes the report tree in the wire format AppendJSON
// defines.
func (it *Item) MarshalJSON() ([]byte, error) {
	return it.AppendJSON(nil)
}

// WriteJSON writes the indented JSON form of the subtree.
func (it *Item) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(it)
}
