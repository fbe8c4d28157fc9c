package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// The self-test runs every workload of BENCHMARK.json at minimal length,
// untraced and traced, and checks the benchmark's own contract: every
// documented metric is printed with its documented unit, the outputs
// match their stored digests, and the traced attribution rows add up to
// the per-op wall time. It asserts no timing thresholds. Run it from this
// directory with `go test`.

func TestMain(m *testing.M) {
	// The benchmark runs from the repository root.
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecMatchesCode(t *testing.T) {
	s := loadSpec(t)
	same := func(kind string, doc []specMetric, code []struct{ name, unit string }) {
		if len(doc) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(doc), len(code))
		}
		for i := range min(len(doc), len(code)) {
			if doc[i].Name != code[i].name || doc[i].Unit != code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i, doc[i].Name, doc[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", s.EndToEnd, endToEnd)
	same("per_layer", s.PerLayer, perLayer)
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
}

func TestWorkloadsAtMinimalLength(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := loadSpec(t)
	for _, w := range s.Workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name + "/untraced"
			want := s.EndToEnd
			if traced {
				name, want = w.Name+"/traced", s.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				rc := runConfig{workload: w.Name, seed: 1, window: 300 * time.Millisecond, trace: traced, spansDir: t.TempDir()}
				if err := execute(context.Background(), rc, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: printed %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
				if traced {
					// The attribution rows must account for the per-op
					// wall time to within a few percent.
					if f := res.Metrics["traced.rows_sum_frac"].Value; f < 0.95 || f > 1.05 {
						t.Errorf("attribution rows sum to %.3f of the per-op wall time", f)
					}
				}
			})
		}
	}
}
