package config

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"mcpat/internal/presets"
)

// addConfigSeeds adds the XML fuzzers' seed corpus: the test fixture,
// edge cases, and every bundled preset serialized through
// FromChipConfig, so mutation starts from realistic documents.
func addConfigSeeds(f *testing.F) {
	f.Add(sampleXML)
	f.Add("")
	f.Add("<component id=\"system\" type=\"System\"></component>")
	f.Add(`<component id="system" type="System"><param name="tech_node_nm" value="nan"/></component>`)
	f.Add(`<component id="system" type="System"><stat name="noc_flits_per_sec" value="inf"/></component>`)
	for _, p := range presets.All() {
		var sb strings.Builder
		if err := FromChipConfig(p.Config).Write(&sb); err != nil {
			f.Fatalf("preset %s did not serialize: %v", p.Name, err)
		}
		f.Add(sb.String())
	}
	// A valid chip with one non-finite param, which must be rejected.
	niagara, err := presets.ByName("niagara")
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range [][2]string{
		{"vdd", "nan"}, {"vdd", "inf"}, {"clock_mhz", "nan"},
		{"other_area_mm2", "NaN"}, {"l2_peak_duty", "+Inf"},
	} {
		root := FromChipConfig(niagara.Config)
		root.SetParam(p[0], p[1])
		f.Add(root.String())
	}
}

// FuzzConfigParse asserts the no-panic contract of the XML front door:
// arbitrary input either fails with an error or yields a chip
// configuration and statistics vector whose numeric fields are all
// finite.
func FuzzConfigParse(f *testing.F) {
	addConfigSeeds(f)

	f.Fuzz(func(t *testing.T, doc string) {
		root, err := ParseString(doc)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		cfg, err := ToChipConfig(root)
		if err != nil {
			return
		}
		if bad := nonFinitePath(reflect.ValueOf(cfg), "cfg"); bad != "" {
			t.Fatalf("accepted config carries non-finite %s", bad)
		}
		if stats := ToStats(root); stats != nil {
			if bad := nonFinitePath(reflect.ValueOf(*stats), "stats"); bad != "" {
				t.Fatalf("accepted stats carry non-finite %s", bad)
			}
		}
		// The accepted document must survive re-serialization.
		if err := FromChipConfig(cfg).Write(&strings.Builder{}); err != nil {
			t.Fatalf("accepted config did not re-serialize: %v", err)
		}
	})
}

// nonFinitePath walks structs, pointers, and slices looking for the
// first NaN/Inf float64 and returns its field path ("" if none).
func nonFinitePath(v reflect.Value, path string) string {
	switch v.Kind() {
	case reflect.Float64:
		if f := v.Float(); math.IsNaN(f) || math.IsInf(f, 0) {
			return path
		}
	case reflect.Pointer:
		if !v.IsNil() {
			return nonFinitePath(v.Elem(), path)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if bad := nonFinitePath(v.Field(i), path+"."+v.Type().Field(i).Name); bad != "" {
				return bad
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if bad := nonFinitePath(v.Index(i), path); bad != "" {
				return bad
			}
		}
	}
	return ""
}

// FuzzMappingMatchesReference holds the schema tables to the
// hand-written mappings in reference_test.go. For every document both
// return the same error text and the same statistics bit for bit, and
// attach the statistics to the parsed tree as the same bytes. For an
// accepted document both return the same configuration bit for bit
// and write it back as the same bytes, with and without the
// statistics. The partial configuration returned with an error is not
// compared; no caller reads it.
func FuzzMappingMatchesReference(f *testing.F) {
	addConfigSeeds(f)
	f.Fuzz(func(t *testing.T, doc string) {
		root, err := ParseString(doc)
		if err != nil {
			return
		}
		cfg, err := ToChipConfig(root)
		want, refErr := refToChipConfig(root)
		if errText(err) != errText(refErr) {
			t.Fatalf("ToChipConfig error %q, reference %q", errText(err), errText(refErr))
		}
		stats, refStats := ToStats(root), refToStats(root)
		if !sameBits(reflect.ValueOf(stats), reflect.ValueOf(refStats)) {
			t.Fatalf("ToStats %+v, reference %+v", stats, refStats)
		}
		got, ref := clone(root), clone(root)
		FromStats(got, stats)
		refFromStats(ref, refStats)
		sameText(t, "FromStats on the parsed tree", got, ref)
		if err != nil {
			return
		}
		if !sameBits(reflect.ValueOf(cfg), reflect.ValueOf(want)) {
			t.Fatalf("ToChipConfig %+v, reference %+v", cfg, want)
		}
		got, ref = FromChipConfig(cfg), refFromChipConfig(want)
		sameText(t, "FromChipConfig", got, ref)
		FromStats(got, stats)
		refFromStats(ref, refStats)
		sameText(t, "FromChipConfig and FromStats", got, ref)
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func sameText(t *testing.T, what string, got, ref *Component) {
	t.Helper()
	if g, r := got.String(), ref.String(); g != r {
		t.Fatalf("%s wrote\n%s\nreference\n%s", what, g, r)
	}
}

func clone(c *Component) *Component {
	d := *c
	d.Params = append([]Entry(nil), c.Params...)
	d.Stats = append([]Entry(nil), c.Stats...)
	d.Children = nil
	for _, ch := range c.Children {
		d.Children = append(d.Children, clone(ch))
	}
	return &d
}

// sameBits reports whether a and b hold equal values, comparing floats
// by their bits so that a NaN read from a document equals itself.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a.Interface(), b.Interface())
}
