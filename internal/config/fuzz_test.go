package config

import (
	"encoding/xml"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"mcpat/internal/guard"
	"mcpat/internal/presets"
)

// addConfigSeeds adds the XML fuzzers' seed corpus: the test fixture,
// the idiom documents, edge cases, and every bundled preset serialized
// through FromChipConfig, so mutation starts from realistic documents.
func addConfigSeeds(f *testing.F) {
	f.Add(sampleXML)
	for _, tc := range idiomDocs {
		f.Add(tc.doc)
	}
	f.Add(presetDoc(f))
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

// FuzzParseMatchesDecoder holds the scanner to the encoding/xml decoder
// it replaced (refParse). A document the scanner accepts, the reference
// accepts, and the trees are equal, XMLName and nil slices included. A
// document the reference rejects, the scanner rejects. Every rejection
// is a config error, and one the reference did not make falls in a
// listed class (newRejection).
func FuzzParseMatchesDecoder(f *testing.F) {
	addConfigSeeds(f)
	f.Fuzz(func(t *testing.T, doc string) {
		got, err := ParseString(doc)
		want, refErr := refParse(doc)
		if err != nil {
			if !errors.Is(err, guard.ErrConfig) {
				t.Fatalf("rejection %v is not a config error", err)
			}
			if refErr == nil && newRejection(doc) == "" {
				t.Fatalf("scanner rejected a document the reference accepts, in no listed class: %v", err)
			}
			return
		}
		if refErr != nil {
			t.Fatalf("scanner accepted a document the reference rejects: %v", refErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scanner\n%s\nreference\n%s", treeText(got), treeText(want))
		}
	})
}

// newRejection names the class, among those CHANGES.md lists, of a
// document the reference accepts, or returns "" if it is in none. It
// reads the document as the reference does, with encoding/xml's
// tokenizer, up to the root's end tag.
func newRejection(doc string) string {
	d := xml.NewDecoder(strings.NewReader(doc))
	var open []string // names of the open elements
	for {
		off := d.InputOffset()
		tok, err := d.RawToken()
		if err != nil {
			return ""
		}
		raw := doc[off:d.InputOffset()]
		switch t := tok.(type) {
		case xml.Directive:
			return "DOCTYPE or other <! declaration"
		case xml.CharData:
			if off == 0 {
				raw = strings.TrimPrefix(raw, bom)
			}
			switch {
			case strings.HasPrefix(raw, "<![CDATA["):
				return "CDATA section"
			case strings.Trim(raw, " \t\r\n") != "":
				return "character data"
			}
		case xml.ProcInst:
			if !asciiName(t.Target) {
				return "colon or non-ASCII byte in a name"
			}
		case xml.StartElement:
			if n := len(open); n > 0 && open[n-1] != "component" {
				return "element inside <param> or <stat>"
			}
			if t.Name.Space != "" {
				return "namespace prefix"
			}
			switch t.Name.Local {
			case "component", "param", "stat":
			default:
				return "other element"
			}
			for _, a := range t.Attr {
				if a.Name.Space != "" || a.Name.Local == "xmlns" {
					return "namespace prefix"
				}
				if !asciiName(a.Name.Local) {
					return "colon or non-ASCII byte in a name"
				}
			}
			if len(open) == maxDepth {
				return "nesting past maxDepth components"
			}
			open = append(open, t.Name.Local)
		case xml.EndElement:
			if open = open[:len(open)-1]; len(open) == 0 {
				// The reference read no further. The rest decides
				// only if the document up to here parses.
				if _, err := ParseString(doc[:d.InputOffset()]); err == nil {
					return "content after the root element"
				}
				return ""
			}
		}
	}
}

func asciiName(s string) bool {
	for i := 0; i < len(s); i++ {
		if !isNameByte(s[i]) {
			return false
		}
	}
	return true
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
