package chip

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcpat/internal/cache"
	"mcpat/internal/mc"
	"mcpat/internal/power"
)

var updateBits = flag.Bool("update", false, "rewrite testdata/report_bits.golden")

// bitsChips covers every fabric kind plus one chip with every optional
// part (L3, shared FPUs, NIU, PCIe, unmodeled area) and a power-gated
// core, so every part's Score code writes at least one golden line.
func bitsChips() []struct {
	name string
	cfg  Config
} {
	clustered := manycoreCfg(16, Mesh)
	clustered.NoC.ClusterSize = 4
	clustered.NoC.MeshX, clustered.NoC.MeshY = 2, 2

	full := manycoreCfg(8, Crossbar)
	full.Name = "full"
	full.Core.PowerGating = true
	full.L3 = &cache.Config{Name: "L3", Bytes: 8 << 20, Banks: 4, Assoc: 16}
	full.SharedFPUs = 2
	full.NIU = &mc.NIUConfig{Bandwidth: 10e9, Count: 2}
	full.PCIe = &mc.PCIeConfig{Lanes: 8, GbpsPerLane: 2.5}
	full.OtherArea = 12e-6

	return []struct {
		name string
		cfg  Config
	}{
		{"none", manycoreCfg(8, NoneIC)},
		{"bus", manycoreCfg(8, Bus)},
		{"crossbar", manycoreCfg(8, Crossbar)},
		{"mesh", manycoreCfg(8, Mesh)},
		{"clustered", clustered},
		{"ring", manycoreCfg(8, Ring)},
		{"full", full},
	}
}

// allStats extends runStats with traffic for every optional part.
func allStats() *Stats {
	s := runStats()
	s.ClusterBusTransfers = 1.7e8
	s.L3Reads, s.L3Writes = 4.1e7, 1.3e7
	s.NIUBitsPerSec = 6e9
	s.PCIeBitsPerSec = 9e9
	s.FPOpsPerSec = 3.5e8
	return s
}

// bitsScenarios are the Score passes run on every chip: TDP only,
// runtime, the clock network's 0.5 utilization floor (no pipeline duty
// but shared-cache traffic), and runtime off the nominal operating
// point.
var bitsScenarios = []struct {
	name            string
	stats           func() *Stats
	tempK, fFrac, v float64
}{
	{"tdp", func() *Stats { return nil }, 0, 1, 1},
	{"runtime", allStats, 0, 1, 1},
	{"clockfloor", func() *Stats { return &Stats{L2Reads: 2.1e8, L2Writes: 0.9e8} }, 0, 1, 1},
	{"offnominal", allStats, 385, 0.8, 0.9},
}

// writeBits appends one line per report node: the node's path, then the
// hex bits of Area, PeakDynamic, RuntimeDynamic, SubLeak, GateLeak and
// LeakSaved.
func writeBits(w *strings.Builder, path string, it *power.Item) {
	path += "/" + it.Name
	w.WriteString(path)
	for _, v := range [...]float64{it.Area, it.PeakDynamic, it.RuntimeDynamic, it.SubLeak, it.GateLeak, it.LeakSaved} {
		fmt.Fprintf(w, " %016x", math.Float64bits(v))
	}
	w.WriteByte('\n')
	for _, c := range it.Children {
		writeBits(w, path, c)
	}
}

// TestReportBitsGolden pins every bit of every report node, so a rewrite
// of any part's Score code that moves one floating-point operation
// fails here. Run `go test ./internal/chip -run TestReportBitsGolden
// -update` after an intentional model change.
func TestReportBitsGolden(t *testing.T) {
	var got strings.Builder
	for _, c := range bitsChips() {
		p, err := New(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, sc := range bitsScenarios {
			p.SetScoreTemperature(sc.tempK)
			p.SetScoreDVFS(sc.fFrac, sc.v)
			prefix := c.name + "/" + sc.name
			rep, err := p.ReportE(sc.stats())
			if err != nil {
				t.Fatalf("%s: ReportE: %v", prefix, err)
			}
			writeBits(&got, prefix, rep)
		}
	}

	path := filepath.Join("testdata", "report_bits.golden")
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
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d drifted from the golden:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("report has %d golden lines, want %d", len(gotLines), len(wantLines))
	}
}
