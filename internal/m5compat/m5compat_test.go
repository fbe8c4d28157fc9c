package m5compat

import (
	"bufio"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"mcpat/internal/chip"
)

const sampleStats = `
---------- Begin Simulation Statistics ----------
sim_seconds                                  0.001000   # Number of seconds simulated
system.cpu0.numCycles                         2000000   # number of cpu cycles simulated
system.cpu1.numCycles                         2000000   # number of cpu cycles simulated
system.cpu0.committedInsts                    1500000   # Number of instructions committed
system.cpu1.committedInsts                    1300000   # Number of instructions committed
system.cpu0.icache.overall_accesses::total    1800000   # number of overall accesses
system.cpu1.icache.overall_accesses::total    1700000   # number of overall accesses
system.cpu0.icache.overall_misses::total         9000   # number of overall misses
system.cpu1.icache.overall_misses::total         8000   # number of overall misses
system.cpu0.dcache.ReadReq_accesses::total     400000   # number of read accesses
system.cpu1.dcache.ReadReq_accesses::total     380000   # number of read accesses
system.cpu0.dcache.WriteReq_accesses::total    180000   # number of write accesses
system.cpu1.dcache.WriteReq_accesses::total    170000   # number of write accesses
system.cpu0.dcache.overall_misses::total        22000   # misses
system.cpu1.dcache.overall_misses::total        21000   # misses
system.cpu0.num_int_alu_accesses              1100000   # integer alu ops
system.cpu1.num_int_alu_accesses              1000000   # integer alu ops
system.cpu0.num_fp_alu_accesses                 90000   # fp alu ops
system.cpu1.num_fp_alu_accesses                 80000   # fp alu ops
system.cpu0.branchPred.lookups                 300000   # predictor lookups
system.cpu1.branchPred.lookups                 280000   # predictor lookups
system.cpu0.branchPred.BTBLookups              250000   # btb lookups
system.cpu1.branchPred.BTBLookups              240000   # btb lookups
system.l2.overall_accesses::total               80000   # l2 accesses
system.mem_ctrls.num_reads::total               15000   # memory reads
system.mem_ctrls.num_writes::total               7000   # memory writes
system.cpu0.iq.iqInstsIssued                  1600000   # issued
system.cpu1.iq.iqInstsIssued                  1450000   # issued
some.histogram::bucket                        garbage   # non-numeric is skipped
`

func TestParse(t *testing.T) {
	dumps, err := Parse(strings.NewReader(sampleStats))
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 1 {
		t.Fatalf("got %d dumps", len(dumps))
	}
	d := dumps[0]
	if d["system.cpu0.committedInsts"] != 1500000 {
		t.Errorf("committedInsts = %v", d["system.cpu0.committedInsts"])
	}
	if _, ok := d["some.histogram::bucket"]; ok {
		t.Error("non-numeric lines must be skipped")
	}
}

func TestParseMultipleDumps(t *testing.T) {
	two := sampleStats + "\n" + dumpDelimiter + "\nsim_seconds 0.002 # s\nsystem.cpu0.numCycles 4000000 # c\nsystem.cpu0.committedInsts 99 # n\n"
	dumps, err := Parse(strings.NewReader(two))
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 2 {
		t.Fatalf("got %d dumps, want 2", len(dumps))
	}
	last, err := ParseLast(strings.NewReader(two))
	if err != nil {
		t.Fatal(err)
	}
	if last["system.cpu0.committedInsts"] != 99 {
		t.Error("ParseLast must return the final dump")
	}
}

func TestToChipStats(t *testing.T) {
	d, err := ParseLast(strings.NewReader(sampleStats))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ToChipStats(d, 2e9, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := stats.CoreRun
	// committedInsts averaged: (1.5M+1.3M)/2 over 2M cycles = 0.7/cycle.
	if a.Decode < 0.69 || a.Decode > 0.71 {
		t.Errorf("Decode = %v, want ~0.7", a.Decode)
	}
	if a.ICacheAccess < 0.86 || a.ICacheAccess > 0.89 {
		t.Errorf("ICacheAccess = %v, want ~0.875", a.ICacheAccess)
	}
	if a.DCacheRead <= 0 || a.DCacheWrite <= 0 || a.IntOp <= 0 {
		t.Errorf("missing activity: %+v", a)
	}
	if a.PipelineDuty <= 0 || a.PipelineDuty > 1 {
		t.Errorf("PipelineDuty = %v", a.PipelineDuty)
	}
	// L2: 80000 accesses over 1ms (2M cycles at 2GHz) = 80M/s.
	total := stats.L2Reads + stats.L2Writes
	if total < 79e6 || total > 81e6 {
		t.Errorf("L2 rate = %v, want ~80e6", total)
	}
	// Memory: 22000 over 1ms = 22M/s.
	if stats.MCAccesses < 21.9e6 || stats.MCAccesses > 22.1e6 {
		t.Errorf("MC rate = %v", stats.MCAccesses)
	}
}

func TestToChipStatsErrors(t *testing.T) {
	d := Dump{"unrelated": 1}
	if _, err := ToChipStats(d, 2e9, 2); err == nil {
		t.Error("missing cycle counts must fail")
	}
	if _, err := ToChipStats(Dump{}, 0, 2); err == nil {
		t.Error("zero clock must fail")
	}
}

func TestSimSecondsFallback(t *testing.T) {
	d := Dump{
		"sim_seconds":                0.001,
		"system.cpu0.committedInsts": 1e6,
	}
	stats, err := ToChipStats(d, 1e9, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 1e6 insts over 1e6 cycles = 1.0/cycle.
	if stats.CoreRun.Decode < 0.99 || stats.CoreRun.Decode > 1.01 {
		t.Errorf("Decode = %v", stats.CoreRun.Decode)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(strings.NewReader("")); err == nil {
		t.Error("empty stream must fail")
	}
}

func TestSingleCoreDotPrefix(t *testing.T) {
	// gem5 single-core configs name the CPU "system.cpu" with no index.
	text := `
system.cpu.numCycles 1000000 # c
system.cpu.committedInsts 800000 # n
`
	d, err := ParseLast(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ToChipStats(d, 1e9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CoreRun.Decode < 0.79 || stats.CoreRun.Decode > 0.81 {
		t.Errorf("Decode = %v, want 0.8", stats.CoreRun.Decode)
	}
}

// TestToChipStatsDeterministic pins core-order summation: three and four
// cores with fractional counters, whose sum depends on the order of
// addition, convert to the same bits on every call, equal to the sum
// taken in core-index order (0, 1, 2, 10 - numeric, not lexicographic).
func TestToChipStatsDeterministic(t *testing.T) {
	c0, c1, c2, c10 := 0.1, 0.2, 0.3, 0.15 // float64 variables: runtime rounding
	four := Dump{
		"system.cpu0.numCycles":       1,
		"system.cpu1.numCycles":       1,
		"system.cpu2.numCycles":       1,
		"system.cpu10.numCycles":      1,
		"system.cpu0.committedInsts":  c0,
		"system.cpu1.committedInsts":  c1,
		"system.cpu2.committedInsts":  c2,
		"system.cpu10.committedInsts": c10,
	}
	three := Dump{
		"system.cpu0.numCycles":      1,
		"system.cpu1.numCycles":      1,
		"system.cpu2.numCycles":      1,
		"system.cpu0.committedInsts": c0,
		"system.cpu1.committedInsts": c1,
		"system.cpu2.committedInsts": c2,
	}
	if (c0+c1)+c2 == (c1+c2)+c0 {
		t.Fatal("fixture: the three-core sum must depend on the order of addition")
	}
	inOrder := ((c0 + c1) + c2) + c10
	lexical, reversed := ((c0+c1)+c10)+c2, ((c10+c2)+c1)+c0
	if inOrder == lexical || inOrder == reversed {
		t.Fatal("fixture: the four-core sum must depend on the order of addition")
	}
	for _, tc := range []struct {
		d     Dump
		cores int
		want  float64
	}{
		{three, 3, ((c0 + c1) + c2) / 3},
		{four, 4, inOrder / 4},
	} {
		for i := 0; i < 200; i++ {
			s, err := ToChipStats(tc.d, 1e9, tc.cores)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.CoreRun.Decode; math.Float64bits(got) != math.Float64bits(tc.want) {
				t.Fatalf("%d cores, call %d: Decode = %v, want %v (the core-ordered sum / %d)", tc.cores, i, got, tc.want, tc.cores)
			}
		}
	}
}

// TestParseLineLimit pins the 1 MiB line limit: a line that fits with
// its newline parses, one byte more fails with bufio.ErrTooLong.
func TestParseLineLimit(t *testing.T) {
	for _, n := range []int{maxLine - 1, maxLine} {
		doc := "sim_seconds 0.001 #" + strings.Repeat("x", n-len("sim_seconds 0.001 #")) + "\nsystem.cpu0.numCycles 10\n"
		dumps, err := Parse(strings.NewReader(doc))
		_, refErr := refParse(strings.NewReader(doc))
		if errText(err) != errText(refErr) {
			t.Fatalf("%d-byte line: error %q, reference %q", n, errText(err), errText(refErr))
		}
		switch {
		case n < maxLine && (err != nil || dumps[0]["sim_seconds"] != 0.001):
			t.Fatalf("%d-byte line: %v, %v", n, dumps, err)
		case n == maxLine && !errors.Is(err, bufio.ErrTooLong):
			t.Fatalf("%d-byte line: err = %v, want bufio.ErrTooLong", n, err)
		}
	}
}

// TestFiniteStatsCoversEveryField pins finiteStats, the check
// ToChipStats makes before it names a bad field by reflection, to the
// statistics struct: a NaN or ±Inf in any float64 field fails it, and
// finite values as large as float64 goes pass it.
func TestFiniteStatsCoversEveryField(t *testing.T) {
	var s chip.Stats
	fields := floatFields(reflect.ValueOf(&s).Elem(), "", nil)
	if len(fields) < 30 {
		t.Fatalf("walked %d float64 fields; the statistics struct has more", len(fields))
	}
	for _, f := range fields {
		f.v.SetFloat(math.MaxFloat64)
	}
	if !finiteStats(&s) {
		t.Fatal("finiteStats rejects a vector of finite values")
	}
	for _, f := range fields {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			f.v.SetFloat(bad)
			if finiteStats(&s) {
				t.Errorf("finiteStats accepts %v in %s", bad, f.path)
			}
			if path, ok := firstNonFinite(reflect.ValueOf(&s).Elem()); !ok || path != f.path {
				t.Errorf("firstNonFinite names %q for %v in %s", path, bad, f.path)
			}
		}
		f.v.SetFloat(-math.MaxFloat64)
	}
}

type floatField struct {
	path string
	v    reflect.Value
}

func floatFields(v reflect.Value, path string, out []floatField) []floatField {
	switch v.Kind() {
	case reflect.Float64:
		out = append(out, floatField{path, v})
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			out = floatFields(v.Field(i), name, out)
		}
	}
	return out
}
