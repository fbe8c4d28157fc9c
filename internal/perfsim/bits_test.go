package perfsim

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updateBits = flag.Bool("update", false, "rewrite testdata/run_bits.golden")

// bitsMachines are four machines shaped like the DSE's: a flat and a
// clustered mesh, and two rings, whose stations sit on a one-dimensional
// fabric (MeshDim spans the ring's average hop count). Together they
// cover compute-, bus- and memory-bound fixed points.
var bitsMachines = []struct {
	name string
	m    Machine
}{
	{"mesh-8c-cl1", Machine{Cores: 8, ThreadsPerCore: 4, IssueWidth: 1, ClockHz: 2.5e9, ClusterSize: 1,
		L2Latency: 14, FabricHopLat: 4, MemLatency: 150, MeshDim: 4, MemBandwidth: 200e9, BusBytes: 16}},
	{"mesh-64c-cl4", Machine{Cores: 64, ThreadsPerCore: 4, IssueWidth: 1, ClockHz: 2.5e9, ClusterSize: 4,
		L2Latency: 17, FabricHopLat: 4, MemLatency: 150, MeshDim: 4, MemBandwidth: 200e9, BusBytes: 16}},
	{"ring-16c", Machine{Cores: 16, ThreadsPerCore: 4, IssueWidth: 1, ClockHz: 2.5e9, ClusterSize: 1,
		L2Latency: 15, FabricHopLat: 4, MemLatency: 150, MeshDim: 12, MemBandwidth: 200e9, BusBytes: 16}},
	{"ring-64c", Machine{Cores: 64, ThreadsPerCore: 4, IssueWidth: 1, ClockHz: 2.5e9, ClusterSize: 1,
		L2Latency: 18, FabricHopLat: 4, MemLatency: 150, MeshDim: 48, MemBandwidth: 50e9, BusBytes: 16}},
}

// resultBits lists every float64 of a Result, nested structs included,
// as name=hex-bits pairs in field order.
func resultBits(r *Result) string {
	var b strings.Builder
	var walk func(prefix string, v reflect.Value)
	walk = func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), prefix+v.Type().Field(i).Name
			switch f.Kind() {
			case reflect.Struct:
				walk(name+".", f)
			case reflect.Float64:
				fmt.Fprintf(&b, " %s=%016x", name, math.Float64bits(f.Float()))
			}
		}
	}
	walk("", reflect.ValueOf(*r))
	return b.String()
}

// TestRunBitsPinned pins the hex bits of every float field of every
// Result (one golden line per machine and workload) for SPLASH2Like on
// the four machines, so a rewrite of Run's arithmetic that moves one
// rounding fails here. Run `go test ./internal/perfsim -run
// TestRunBitsPinned -update` after an intentional model change.
func TestRunBitsPinned(t *testing.T) {
	var got strings.Builder
	for _, bm := range bitsMachines {
		for _, w := range SPLASH2Like() {
			r, err := Run(bm.m, w)
			if err != nil {
				t.Fatalf("%s/%s: %v", bm.name, w.Name, err)
			}
			fmt.Fprintf(&got, "%s/%s%s\n", bm.name, w.Name, resultBits(r))
		}
	}
	path := filepath.Join("testdata", "run_bits.golden")
	if *updateBits {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d golden lines, want %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d drifted from the golden:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
}

// BenchmarkRun times one Run call, cycling over the pinned machines and
// the three workloads.
func BenchmarkRun(b *testing.B) {
	ws := SPLASH2Like()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bm := bitsMachines[i%len(bitsMachines)]
		if _, err := Run(bm.m, ws[i%len(ws)]); err != nil {
			b.Fatal(err)
		}
	}
}
