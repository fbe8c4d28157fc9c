package presets

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcpat/internal/chip"
	"mcpat/internal/core"
	"mcpat/internal/power"
)

var updateBits = flag.Bool("update", false, "rewrite testdata/report_bits.golden")

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

// bitsConfigs is every preset, plus the out-of-order presets with their
// other rename-table form, with power gating and with a TDP activity of
// their own for the cores (chip.Config.CorePeak), so every branch of the
// core's Score code (in-order and out-of-order pipelines, RAM and CAM
// rename tables, gated leakage, a chip-set peak) writes golden lines.
func bitsConfigs() []Preset {
	out := All()
	for _, p := range All() {
		if !p.Config.Core.OoO {
			continue
		}
		v := p
		v.Name += "-variant"
		v.Config.Core.RenameCAM = !v.Config.Core.RenameCAM
		v.Config.Core.PowerGating = true
		peak := core.PeakActivity(v.Config.Core).Scale(0.85)
		v.Config.CorePeak = &peak
		out = append(out, v)
	}
	return out
}

// TestPresetReportBitsGolden pins every bit of every report node of every
// preset, at TDP, at a runtime point at 60% of the cores' peak activity
// and off the nominal operating point, so a rewrite of any Score code
// that moves one floating-point operation fails here. Run `go test
// ./internal/presets -run TestPresetReportBitsGolden -update` after an
// intentional model change.
func TestPresetReportBitsGolden(t *testing.T) {
	var got strings.Builder
	for _, ps := range bitsConfigs() {
		p, err := chip.New(ps.Config)
		if err != nil {
			t.Fatalf("%s: %v", ps.Name, err)
		}
		run := &chip.Stats{
			CoreRun: p.CorePeakActivity().Scale(0.6),
			L2Reads: 3.1e8, L2Writes: 1.2e8, L3Reads: 5e7, L3Writes: 2e7,
			NoCFlits: 2.2e8, MCAccesses: 9e7,
			NIUBitsPerSec: 4e9, PCIeBitsPerSec: 7e9, FPOpsPerSec: 2e8,
		}
		for _, sc := range []struct {
			name     string
			stats    *chip.Stats
			tempK    float64
			fFrac, v float64
		}{
			{"tdp", nil, 0, 1, 1},
			{"runtime", run, 0, 1, 1},
			{"offnominal", run, 380, 0.75, 0.9},
		} {
			p.SetScoreTemperature(sc.tempK)
			p.SetScoreDVFS(sc.fFrac, sc.v)
			rep, err := p.ReportE(sc.stats)
			if err != nil {
				t.Fatalf("%s/%s: %v", ps.Name, sc.name, err)
			}
			writeBits(&got, ps.Name+"/"+sc.name, rep)
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
