package mcpat_test

// Trace-path benchmarks: measure the per-interval cost of the time-series
// power engine (internal/trace), the workload the synthesize/score split
// was built for. BenchmarkTraceScore is the steady-state hot path a long
// stats.txt replay pays per dump: one Score of the already-synthesized
// chip's compiled report into the engine's slab. The Heap variant builds
// the ReportE tree from a fresh slab instead, and the FullEvaluate
// variant re-synthesizes the chip every interval — the naive pipeline a user
// would write without the engine. BENCH_dse.json's trace_path section
// records the reference numbers; the allocs/op gap between Score and
// FullEvaluate is the acceptance metric.

import (
	"bytes"
	"context"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"mcpat"
)

// traceBenchFixture maps the checked-in gem5 example pair once and
// returns the synthesized engine plus its intervals.
func traceBenchFixture(b *testing.B) (*mcpat.TraceEngine, []mcpat.TraceInterval, mcpat.Config) {
	b.Helper()
	cfgF, err := os.Open("examples/gem5-trace/config.json")
	if err != nil {
		b.Fatal(err)
	}
	defer cfgF.Close()
	statsF, err := os.Open("examples/gem5-trace/stats.txt")
	if err != nil {
		b.Fatal(err)
	}
	defer statsF.Close()
	eng, ivs, res, err := mcpat.TraceFromGem5(cfgF, statsF)
	if err != nil {
		b.Fatal(err)
	}
	if len(ivs) < 2 {
		b.Fatalf("fixture has %d intervals, want >= 2", len(ivs))
	}
	return eng, ivs, res.Config
}

// BenchmarkTraceScore is the engine's hot path: one Score into the
// engine's slab per interval against the chip synthesized once up front.
// This is the per-dump cost of replaying a long stats.txt stream.
func BenchmarkTraceScore(b *testing.B) {
	eng, ivs, _ := traceBenchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iv := ivs[i%len(ivs)]
		if _, err := eng.Score(i, 0, iv); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "intervals/s")
}

// BenchmarkTraceScoreHeap scores the same intervals through ReportE: the
// chip is still synthesized once, but every interval scores into a fresh
// slab and builds the report tree from it. The gap to
// BenchmarkTraceScore is the cost of the tree alone.
func BenchmarkTraceScoreHeap(b *testing.B) {
	eng, ivs, _ := traceBenchFixture(b)
	proc := eng.Processor()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iv := ivs[i%len(ivs)]
		if _, err := proc.ReportE(iv.Stats); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "intervals/s")
}

// BenchmarkTraceFullEvaluate is the naive per-interval pipeline the
// engine replaces: re-synthesize the chip for every dump, then report.
// Synthesis caches stay at their defaults (warm after the first
// iteration), so this is the BEST case for the naive loop — the engine
// still wins on both time and allocations because a warm chip.New must
// re-assemble and re-validate the whole hierarchy per call.
func BenchmarkTraceFullEvaluate(b *testing.B) {
	_, ivs, cfg := traceBenchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iv := ivs[i%len(ivs)]
		p, err := mcpat.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		p.Report(iv.Stats)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "intervals/s")
}

// BenchmarkTraceRun measures a whole Run over the example's three
// intervals — header, per-interval scoring, and summary folding — the
// unit of work one /v1/trace request or one mcpat-trace invocation pays
// after synthesis.
func BenchmarkTraceRun(b *testing.B) {
	eng, ivs, _ := traceBenchFixture(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(ctx, ivs, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*len(ivs))/b.Elapsed().Seconds(), "intervals/s")
}

// BenchmarkTraceThermalLoop is the closed-loop hot path: the same
// slab Score per interval, plus the governor decision, the
// Score-time temperature/DVFS retune, and one transient thermal-model
// step over the floorplan-derived blocks. The acceptance bound for the
// thermal/DVFS refactor is allocs/op within +2 of BenchmarkTraceScore
// (BENCH_dse.json, thermal_loop section).
func BenchmarkTraceThermalLoop(b *testing.B) {
	eng, ivs, _ := traceBenchFixture(b)
	if err := eng.EnableLoop(mcpat.TraceLoopOptions{
		Package:      mcpat.PackageSpec{RthetaJA: 0.8, MaxTjK: 360, TimeConstS: 5e-4},
		UseFloorplan: true,
		Governor:     mcpat.ThermalHeadroomGovernor{},
	}); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i += len(ivs) {
		tr, err := eng.Run(ctx, ivs, nil)
		if err != nil {
			b.Fatal(err)
		}
		n += len(tr.Samples)
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "intervals/s")
}

// ingestStreamDumps is the dump count of the ingestion benchmarks'
// stream, the length of one perfbench trace-replay stream.
const ingestStreamDumps = 48

// ingestStream repeats the checked-in gem5 example (three dumps) into a
// 48-dump stats.txt stream.
func ingestStream(b *testing.B) []byte {
	b.Helper()
	example, err := os.ReadFile("examples/gem5-trace/stats.txt")
	if err != nil {
		b.Fatal(err)
	}
	per := strings.Count(string(example), "Begin Simulation Statistics")
	if per == 0 || ingestStreamDumps%per != 0 {
		b.Fatalf("example has %d dumps; want a divisor of %d", per, ingestStreamDumps)
	}
	return bytes.Repeat(example, ingestStreamDumps/per)
}

// benchStream runs op once per iteration, each op handling n units of
// one 48-dump stream, and reports time and allocations per unit.
func benchStream(b *testing.B, n int, unit string, op func() error) {
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	units := float64(b.N * n)
	b.ReportMetric(b.Elapsed().Seconds()*1e6/units, "us/"+unit)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/units, "allocs/"+unit)
}

// BenchmarkM5Parse is the first stats-ingestion rung: reading a 48-dump
// gem5 stats.txt stream into name->value dumps (m5compat.Parse).
func BenchmarkM5Parse(b *testing.B) {
	stream := ingestStream(b)
	benchStream(b, ingestStreamDumps, "dump", func() error {
		_, err := mcpat.ParseM5StatsAll(bytes.NewReader(stream))
		return err
	})
}

// BenchmarkIntervalsFromDumps is the second stats-ingestion rung:
// converting the parsed dumps of a 48-dump stream into trace intervals
// (ToChipStats plus SimSeconds per dump), the step before Score.
func BenchmarkIntervalsFromDumps(b *testing.B) {
	dumps, err := mcpat.ParseM5StatsAll(bytes.NewReader(ingestStream(b)))
	if err != nil {
		b.Fatal(err)
	}
	_, _, cfg := traceBenchFixture(b)
	benchStream(b, ingestStreamDumps, "dump", func() error {
		_, err := mcpat.TraceIntervalsFromDumps(dumps, cfg.ClockHz, cfg.NumCores)
		return err
	})
}

// BenchmarkWriteRecord is the third rung: encoding a 48-dump stream's
// NDJSON records, the chip, sample and summary records of its open-loop
// trace and of its closed-loop trace (the thermal benchmark's loop), to
// a writer that drops them.
func BenchmarkWriteRecord(b *testing.B) {
	eng, _, cfg := traceBenchFixture(b)
	dumps, err := mcpat.ParseM5StatsAll(bytes.NewReader(ingestStream(b)))
	if err != nil {
		b.Fatal(err)
	}
	ivs, err := mcpat.TraceIntervalsFromDumps(dumps, cfg.ClockHz, cfg.NumCores)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	open, err := eng.Run(ctx, ivs, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.EnableLoop(mcpat.TraceLoopOptions{
		Package:      mcpat.PackageSpec{RthetaJA: 0.8, MaxTjK: 360, TimeConstS: 5e-4},
		UseFloorplan: true,
		Governor:     mcpat.ThermalHeadroomGovernor{},
	}); err != nil {
		b.Fatal(err)
	}
	closed, err := eng.Run(ctx, ivs, nil)
	if err != nil {
		b.Fatal(err)
	}
	records := 2 * (len(ivs) + 2)
	benchStream(b, records, "record", func() error {
		if err := open.WriteNDJSON(io.Discard); err != nil {
			return err
		}
		return closed.WriteNDJSON(io.Discard)
	})
}
