package m5compat

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mcpat/internal/chip"
)

// fuzzSeeds seed both fuzz targets: the sample dump, edge values, and
// the separators, encodings and CPU naming forms the reader must
// handle exactly as strings.Fields and the per-counter walk did.
var fuzzSeeds = []string{
	sampleStats,
	"",
	dumpDelimiter + "\n",
	"system.cpu0.numCycles nan # undefined ratio\nsim_seconds inf # bad\n",
	"sim_seconds 1e-320 # denormal\nsystem.l2.overall_accesses::total 1e308 # huge\n",
	"system.cpu.numCycles 1000 # single-core prefix\nsystem.cpu.committedInsts 900 # n\n",
	// Unicode separators: NEL (U+0085), NBSP (U+00A0), and wider ones.
	"system.cpu0.numCycles\u00851000\u0085# nel\nsystem.cpu0.committedInsts 900 # nbsp\n",
	"system.cpu0.numCycles 1000\nsystem.cpu0.committedInsts\u3000900\nsim_seconds \u00850.001\n",
	// Invalid UTF-8 is never a separator.
	"system.cpu0.numCycles\xff 1000\nsystem.cpu0.committedInsts \xfe900\n\xc2 sim_seconds 0.001\nsystem.cpu1.numCycles \xc2\x85 1000\n",
	// Tabs and CRLF line endings.
	"sim_seconds\t0.001\t# s\r\nsystem.cpu0.numCycles\t2000000\t# c\r\nsystem.cpu0.committedInsts\t\t1500000\r\n",
	// ParseFloat spellings and non-numbers.
	"system.cpu0.numCycles 0x1p10\nsystem.cpu0.committedInsts +512\nsystem.cpu0.iq.iqInstsIssued 1_000\nsystem.cpu0.rob.rob_reads Infinity\nsystem.cpu0.rob.rob_writes .5e3\nsystem.cpu0.branchPred.lookups End\n",
	// switch_cpus only.
	"system.switch_cpus0.numCycles 1000\nsystem.switch_cpus1.numCycles 1000\nsystem.switch_cpus0.committedInsts 700\nsystem.switch_cpus1.committedInsts 600\n",
	// Mixed cpu/switch_cpus: each counter takes the first prefix that carries it.
	"system.cpu0.numCycles 1000\nsystem.cpu1.numCycles 1000\nsystem.switch_cpus0.numCycles 5\nsystem.switch_cpus0.committedInsts 700.5\nsystem.switch_cpus1.committedInsts 600.25\nsystem.switch_cpus2.committedInsts 0.1\nsystem.cpu0.commit.committedInsts 3\n",
	// Four fractional cores, numbered out of lexicographic order, plus
	// the unnumbered form and a zero-padded index.
	dumpDelimiter + "\nsystem.cpu0.numCycles 3.3\nsystem.cpu1.numCycles 0.7\nsystem.cpu2.numCycles 0.1\nsystem.cpu10.numCycles 0.15\n" +
		"system.cpu0.committedInsts 0.1\nsystem.cpu1.committedInsts 0.2\nsystem.cpu2.committedInsts 0.3\nsystem.cpu10.committedInsts 0.15\n" +
		dumpDelimiter + "\nsystem.cpu.numCycles 0.3\nsystem.cpu0.numCycles 0.1\nsystem.cpu00.numCycles 0.2\nsystem.cpu1.numCycles 0.15\n",
	// Word-wise scanning: bytes that stop an eight-byte step (controls,
	// DEL, U+0085 and U+00A0, invalid UTF-8) at every offset of a word,
	// and space runs broken by a tab or a NEL.
	"system.cpu0.numCycles\x1f1000 # unit separator is not space\nsystem.cpu0\x7f.numCycles 5\nsystem.cpu0.committedIns\u00a0900\n" +
		"system.cpu1.numCycle\u0085s 7\nsim_seconds          \t        0.001\nsystem.l2.overall_accesses::total        \u0085     12\n" +
		"abcdefgh\xc2ijklmnop 1\nabcdefghi\xffjklmnop 2\n\x00\x01\x02\x03\x04\x05\x06\x07 3\n",
	// The integer fast path's edges: 15 and 16 digits, 2^53+1, leading
	// zeros, and digit runs ParseFloat reads differently.
	"system.cpu0.numCycles 999999999999999\nsystem.cpu1.numCycles 9999999999999999\nsystem.cpu0.committedInsts 9007199254740993\n" +
		"system.cpu1.committedInsts 000000000000007\nsim_seconds 0\nsystem.l2.overall_accesses::total 00\nsystem.tol2bus.pkt_count::total 1e3\n" +
		"system.mem_ctrls.num_reads::total 12345678901234567890123\nsystem.mem_ctrls.num_writes::total 1_2\n",
}

// FuzzM5Parse asserts the no-panic contract of the gem5 statistics
// reader: arbitrary input either fails with an error or parses into
// dumps whose values are finite, and any statistics vector accepted by
// ToChipStats is finite in every field.
func FuzzM5Parse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		dumps, err := Parse(strings.NewReader(doc))
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		for _, d := range dumps {
			for name, v := range d {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("Parse let non-finite %q = %v into the counter map", name, v)
				}
			}
		}
		stats, err := ToChipStats(dumps[len(dumps)-1], 2e9, 4)
		if err != nil {
			return
		}
		if bad, ok := firstNonFinite(reflect.ValueOf(stats).Elem()); ok {
			t.Fatalf("accepted stats carry non-finite field %s", bad)
		}
	})
}

// FuzzParseMatchesReference holds the one-pass reader to the
// strings.Fields parser and per-counter walk in reference_test.go: the
// same dumps bit for bit, the same ToChipStats vectors and SimSeconds
// durations (on each dump as parsed and spread over 1, 2 and 4 cores),
// and the same error texts.
func FuzzParseMatchesReference(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		got, err := Parse(strings.NewReader(doc))
		want, refErr := refParse(strings.NewReader(doc))
		if errText(err) != errText(refErr) {
			t.Fatalf("Parse error %q, reference %q", errText(err), errText(refErr))
		}
		if len(got) != len(want) {
			t.Fatalf("Parse found %d dumps, reference %d", len(got), len(want))
		}
		for k := range got {
			if !sameDump(got[k], want[k]) {
				t.Fatalf("dump %d: Parse %v, reference %v", k, got[k], want[k])
			}
			checkConversion(t, fmt.Sprintf("dump %d", k), got[k], 2)
			for _, cores := range []int{1, 2, 4} {
				checkConversion(t, fmt.Sprintf("dump %d over %d cores", k, cores), spread(got[k], cores), cores)
			}
		}
	})
}

// checkConversion compares ToChipStats and SimSeconds on d with the
// reference, bit for bit and error text for error text.
func checkConversion(t *testing.T, what string, d Dump, cores int) {
	t.Helper()
	const hz = 2e9
	s, err := ToChipStats(d, hz, cores)
	rs, refErr := refToChipStats(d, hz, cores)
	if errText(err) != errText(refErr) {
		t.Fatalf("%s: ToChipStats error %q, reference %q", what, errText(err), errText(refErr))
	}
	if err == nil && !sameStats(s, rs) {
		t.Fatalf("%s: ToChipStats %+v, reference %+v", what, *s, *rs)
	}
	secs, err := SimSeconds(d, hz)
	refSecs, refErr := refSimSeconds(d, hz)
	if errText(err) != errText(refErr) || math.Float64bits(secs) != math.Float64bits(refSecs) {
		t.Fatalf("%s: SimSeconds %v (%v), reference %v (%v)", what, secs, err, refSecs, refErr)
	}
}

// spread rewrites every per-CPU entry of d as n cores (indexes 0..n-1)
// with distinct fractional values, so the fuzzer's dumps also exercise
// multi-core sums whose result depends on the order of addition.
func spread(d Dump, n int) Dump {
	names := make([]string, 0, len(d))
	for name := range d {
		names = append(names, name)
	}
	sort.Strings(names) // colliding rewrites resolve the same way every run
	out := make(Dump, len(d))
	for _, name := range names {
		v := d[name]
		prefix, rest, ok := splitCPU(name)
		if !ok {
			out[name] = v
			continue
		}
		for j := 0; j < n; j++ {
			out[fmt.Sprintf("%s%d.%s", prefix, j, rest)] = v * float64(j+1) / 3
		}
	}
	return out
}

// splitCPU splits "system.cpu12.rest" (or the switch_cpus form) into
// its prefix and the statistic after the core index.
func splitCPU(name string) (prefix, rest string, ok bool) {
	for _, p := range []string{"system.cpu", "system.switch_cpus"} {
		if !strings.HasPrefix(name, p) {
			continue
		}
		tail := strings.TrimLeft(name[len(p):], "0123456789")
		if strings.HasPrefix(tail, ".") {
			return p, tail[1:], true
		}
	}
	return "", "", false
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func sameDump(a, b Dump) bool {
	if len(a) != len(b) {
		return false
	}
	for name, v := range a {
		w, ok := b[name]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// sameStats compares every float64 field of two statistics vectors by
// bit pattern.
func sameStats(a, b *chip.Stats) bool {
	return reflect.DeepEqual(floatBits(reflect.ValueOf(a).Elem(), nil), floatBits(reflect.ValueOf(b).Elem(), nil))
}

func floatBits(v reflect.Value, out []uint64) []uint64 {
	switch v.Kind() {
	case reflect.Float64:
		out = append(out, math.Float64bits(v.Float()))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = floatBits(v.Field(i), out)
		}
	}
	return out
}
