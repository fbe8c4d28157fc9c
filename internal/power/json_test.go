package power

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// fuzzTree builds a report tree from fuzz inputs. The root carries vals
// in field order (area, peak dynamic, runtime dynamic, subthreshold,
// gate, gated leakage). Each byte of shape, up to 64, adds one node under
// an earlier node, named by a byte-offset suffix of name (so multi-byte
// runes get split) and carrying vals rotated by the byte, so every value
// reaches every field.
func fuzzTree(name string, vals [6]float64, shape []byte) *Item {
	set := func(it *Item, rot int) {
		v := func(k int) float64 { return vals[(k+rot)%len(vals)] }
		it.Area, it.PeakDynamic, it.RuntimeDynamic = v(0), v(1), v(2)
		it.SubLeak, it.GateLeak, it.LeakSaved = v(3), v(4), v(5)
	}
	root := &Item{Name: name}
	set(root, 0)
	nodes := []*Item{root}
	for i, s := range shape {
		if i == 64 {
			break
		}
		n := &Item{Name: name[int(s)%(len(name)+1):]}
		set(n, int(s))
		p := nodes[int(s>>3)%len(nodes)]
		p.Children = append(p.Children, n)
		nodes = append(nodes, n)
	}
	return root
}

// FuzzItemAppendJSON pins AppendJSON to the reflection-based reference
// encoding, byte for byte: compact, and again through an indenting
// json.Encoder (Item.WriteJSON, the CLIs' -json output). Either both
// encodings fail, as they must for NaN and ±Inf, or neither does.
func FuzzItemAppendJSON(f *testing.F) {
	negZero := math.Copysign(0, -1)
	shape := []byte{0x00, 0x09, 0x12, 0x1b, 0x24, 0x2d, 0x05, 0x3f}
	for _, s := range []struct {
		name string
		vals [6]float64
	}{
		{"chip", [6]float64{1.25e-6, 3.5, 1.2, 0.4, 0.1, 0}},
		{"zeros", [6]float64{0, negZero, negZero, 0, negZero, negZero}},
		{"subnormal", [6]float64{5e-324, -5e-324, 2.225073858507201e-308, 1e-310, 1e-320, -1e-315}},
		{"1e-6", [6]float64{1e-12, 1e-6, math.Nextafter(1e-6, 0), -1e-6, math.Nextafter(1e-6, 1), 1e-7}},
		{"1e21", [6]float64{1e15, 1e21, math.Nextafter(1e21, 0), -1e21, math.Nextafter(1e21, 2e21), 1.5e300}},
		{"gated to zero", [6]float64{1e-6, 2, 1, 0.5, 0.5, 2}},
		{"negative runtime", [6]float64{1e-6, 2, -1, 0.5, 0.5, 0.25}},
		{"overflow", [6]float64{1e303, math.MaxFloat64, 1, math.MaxFloat64, 1, 0}},
		{"nan", [6]float64{1e-6, math.NaN(), 1, 2, 3, 4}},
		{"+inf", [6]float64{1e-6, 1, math.Inf(1), 2, 3, 4}},
		{"-inf", [6]float64{1e-6, 1, 2, 3, math.Inf(-1), 4}},
		{`<a href="x">&amp;</a>`, [6]float64{1e-6, 1, 2, 3, 4, 5}},
		{"a<b", [6]float64{1e-6, 1, 2, 3, 4, 5}},
		{"b>a", [6]float64{1e-6, 1, 2, 3, 4, 5}},
		{"R&D", [6]float64{1e-6, 1, 2, 3, 4, 5}},
		{`back\slash "quoted"`, [6]float64{1e-6, 1, 2, 3, 4, 5}},
		{"ctl\x00\x01\t\n\x1f\x7f", [6]float64{1e-6, 1, 2, 3, 4, 5}},
		{"line\u2028para\u2029", [6]float64{1e-6, 1, 2, 3, 4, 5}},
		{"bad\xff\xfeutf8 \xe2\x80", [6]float64{1e-6, 1, 2, 3, 4, 5}},
		{"ünïcødé core[0].ifu", [6]float64{1e-6, 1, 2, 3, 4, 5}},
		{"", [6]float64{1e-6, 1, 2, 3, 4, 5}},
	} {
		v := s.vals
		f.Add(s.name, v[0], v[1], v[2], v[3], v[4], v[5], shape)
	}
	f.Fuzz(func(t *testing.T, name string, area, peak, run, sub, gate, saved float64, shape []byte) {
		root := fuzzTree(name, [6]float64{area, peak, run, sub, gate, saved}, shape)

		want, wantErr := json.Marshal(root.toJSON())
		prefix := []byte("prefix")
		got, err := root.AppendJSON(prefix)
		switch {
		case (err != nil) != (wantErr != nil):
			t.Fatalf("AppendJSON error %v, reference error %v", err, wantErr)
		case err != nil:
			if err.Error() != wantErr.Error() {
				t.Errorf("AppendJSON error %q, reference %q", err, wantErr)
			}
			if string(got) != "prefix" {
				t.Errorf("failed AppendJSON changed dst to %q", got)
			}
		case !bytes.Equal(got[len(prefix):], want):
			t.Fatalf("AppendJSON\n got %s\nwant %s", got[len(prefix):], want)
		}

		var gotInd, wantInd bytes.Buffer
		errInd := root.WriteJSON(&gotInd)
		enc := json.NewEncoder(&wantInd)
		enc.SetIndent("", "  ")
		wantIndErr := enc.Encode(root.toJSON())
		if (errInd != nil) != (wantIndErr != nil) {
			t.Fatalf("WriteJSON error %v, reference error %v", errInd, wantIndErr)
		}
		if !bytes.Equal(gotInd.Bytes(), wantInd.Bytes()) {
			t.Fatalf("WriteJSON\n got %s\nwant %s", gotInd.Bytes(), wantInd.Bytes())
		}
	})
}
