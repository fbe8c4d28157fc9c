package mcpat_test

// DSE sweep benchmarks: measure the end-to-end design-space-exploration
// hot path that the synthesis cache accelerates. Each iteration runs a
// full multi-candidate sweep (core count x L2 capacity x clustering), so
// the reported candidates/sec is the planning-loop throughput a user of
// cmd/mcpat-dse sees. The Cold variant resets and disables the cache to
// give the uncached baseline; comparing the two is the cache's speedup
// on sweep workloads (BENCH_dse.json records the reference numbers).

import (
	"context"
	"testing"

	"mcpat"
)

func dseSweep(b *testing.B) *mcpat.DSEResult {
	b.Helper()
	res, err := mcpat.ExploreDesignSpaceContext(
		context.Background(),
		mcpat.DSEParams{NM: 22, ClockHz: 2.5e9, Threads: 4},
		mcpat.DSESpace{
			Cores:        []int{8, 16, 32},
			L2PerCoreKB:  []int{128, 256},
			ClusterSizes: []int{1, 2},
		},
		mcpat.DSEConstraints{MaxAreaMM2: 400, MaxTDP: 250},
		mcpat.MaxThroughput,
		nil,
	)
	if err != nil {
		b.Fatal(err)
	}
	if res.Best == nil {
		b.Fatal("sweep found no feasible design")
	}
	return res
}

// BenchmarkDSESweep measures sweep throughput with the synthesis cache
// enabled (the default). After the first iteration warms the cache,
// every candidate's arrays resolve to cache hits.
func BenchmarkDSESweep(b *testing.B) {
	mcpat.ResetArraySynthCache()
	var evaluated int
	for i := 0; i < b.N; i++ {
		res := dseSweep(b)
		evaluated = res.Evaluated
	}
	b.ReportMetric(float64(evaluated)*float64(b.N)/b.Elapsed().Seconds(), "candidates/s")
	cs := mcpat.ReadEngineCounters().Cache
	b.ReportMetric(100*cs.HitRate(), "hit%")
}

// BenchmarkDSESweepCold is the uncached baseline: BOTH synthesis cache
// layers are disabled for the duration, so every candidate pays full
// array-optimizer enumeration and subsystem assembly cost.
func BenchmarkDSESweepCold(b *testing.B) {
	prevArr := mcpat.SetArraySynthCache(false)
	prevSub := mcpat.SetSubsysSynthCache(false)
	defer func() {
		mcpat.SetArraySynthCache(prevArr)
		mcpat.SetSubsysSynthCache(prevSub)
	}()
	mcpat.ResetArraySynthCache()
	mcpat.ResetSubsysSynthCache()
	b.ReportAllocs()
	b.ResetTimer()
	var evaluated int
	for i := 0; i < b.N; i++ {
		res := dseSweep(b)
		evaluated = res.Evaluated
	}
	b.ReportMetric(float64(evaluated)*float64(b.N)/b.Elapsed().Seconds(), "candidates/s")
}

// deltaSweep is a NoC-only sweep: cores, L2 capacity, and clustering are
// fixed while the fabric varies, so candidates differ only in their
// interconnect. This is the delta-re-evaluation shape the subsystem
// cache targets: every candidate after the first reuses the synthesized
// core and shared cache outright and only the fabric is rebuilt.
func deltaSweep(b *testing.B) *mcpat.DSEResult {
	b.Helper()
	res, err := mcpat.ExploreDesignSpace(
		mcpat.DSEParams{NM: 22, ClockHz: 2.5e9, Threads: 4},
		mcpat.DSESpace{
			Cores:       []int{16},
			L2PerCoreKB: []int{256},
			Fabrics: []mcpat.InterconnectKind{
				mcpat.Mesh, mcpat.Ring, mcpat.Bus, mcpat.Crossbar,
			},
			ClusterSizes: []int{1},
		},
		mcpat.DSEConstraints{MaxAreaMM2: 400, MaxTDP: 250},
		mcpat.MaxThroughput,
	)
	if err != nil {
		b.Fatal(err)
	}
	if res.Best == nil {
		b.Fatal("sweep found no feasible design")
	}
	return res
}

// BenchmarkDSEDeltaSweep measures the NoC-only sweep with the subsystem
// cache enabled (the default): cores and shared caches synthesize once
// and every later candidate is a pure-fabric rebuild plus a cheap Score
// pass over the reused subsystems.
func BenchmarkDSEDeltaSweep(b *testing.B) {
	mcpat.ResetArraySynthCache()
	mcpat.ResetSubsysSynthCache()
	var evaluated int
	for i := 0; i < b.N; i++ {
		res := deltaSweep(b)
		evaluated = res.Evaluated
	}
	b.ReportMetric(float64(evaluated)*float64(b.N)/b.Elapsed().Seconds(), "candidates/s")
	cs := mcpat.ReadEngineCounters().Subsys
	b.ReportMetric(100*cs.HitRate(), "subsys-hit%")
}

// paretoSpace is the search-strategy comparison space: 256 points
// (8 cores x 8 L2 x {mesh with clusters, ring}), large enough that the
// pareto search's default budget lands at ~10% of the cross product,
// with a mesh cluster axis so the adaptive generator exercises every
// mutation kind.
func paretoSpace(b *testing.B, opts *mcpat.DSEOptions) *mcpat.DSEResult {
	b.Helper()
	res, err := mcpat.ExploreDesignSpaceContext(
		context.Background(),
		mcpat.DSEParams{NM: 22, ClockHz: 2.5e9, Threads: 4},
		mcpat.DSESpace{
			Cores:        []int{2, 4, 8, 12, 16, 24, 32, 64},
			L2PerCoreKB:  []int{64, 128, 256, 512, 1024, 2048, 4096, 8192},
			Fabrics:      []mcpat.InterconnectKind{mcpat.Mesh, mcpat.Ring},
			ClusterSizes: []int{1, 2, 4},
		},
		mcpat.DSEConstraints{MaxAreaMM2: 400, MaxTDP: 250},
		mcpat.MaxThroughput,
		opts,
	)
	if err != nil {
		b.Fatal(err)
	}
	if res.Best == nil {
		b.Fatal("sweep found no feasible design")
	}
	return res
}

// searchBench runs the strategy comparison at one cache setting and
// reports evaluations-per-op alongside throughput, so the pareto vs
// exhaustive rows in BENCH_dse.json carry both wall-time and the
// evaluation count the budget actually spent.
func searchBench(b *testing.B, opts *mcpat.DSEOptions, cold bool) {
	b.Helper()
	if cold {
		prevArr := mcpat.SetArraySynthCache(false)
		prevSub := mcpat.SetSubsysSynthCache(false)
		defer func() {
			mcpat.SetArraySynthCache(prevArr)
			mcpat.SetSubsysSynthCache(prevSub)
		}()
	}
	mcpat.ResetArraySynthCache()
	mcpat.ResetSubsysSynthCache()
	b.ReportAllocs()
	b.ResetTimer()
	var evaluated, front int
	for i := 0; i < b.N; i++ {
		if cold {
			b.StopTimer()
			mcpat.ResetArraySynthCache()
			mcpat.ResetSubsysSynthCache()
			b.StartTimer()
		}
		res := paretoSpace(b, opts)
		evaluated = res.Evaluated
		front = len(res.Front)
	}
	b.ReportMetric(float64(evaluated), "evals/op")
	b.ReportMetric(float64(front), "front-size")
	b.ReportMetric(float64(evaluated)*float64(b.N)/b.Elapsed().Seconds(), "candidates/s")
}

// BenchmarkDSEPareto runs the budgeted adaptive search (default budget:
// a tenth of the 126-point space) with warm caches. Compare with
// BenchmarkDSEParetoExhaustive for the strategy's evaluation saving at
// equal winners.
func BenchmarkDSEPareto(b *testing.B) {
	searchBench(b, &mcpat.DSEOptions{Search: mcpat.SearchPareto, Seed: 1}, false)
}

// BenchmarkDSEParetoCold is the adaptive search with both synthesis
// caches dropped every iteration: the first-run cost, where each saved
// evaluation pays off at full synthesis price.
func BenchmarkDSEParetoCold(b *testing.B) {
	searchBench(b, &mcpat.DSEOptions{Search: mcpat.SearchPareto, Seed: 1}, true)
}

// BenchmarkDSEParetoExhaustive sweeps the same space exhaustively with
// warm caches — the wall-time baseline the pareto rows are read against.
func BenchmarkDSEParetoExhaustive(b *testing.B) {
	searchBench(b, nil, false)
}

// BenchmarkDSEParetoExhaustiveCold is the exhaustive sweep at full
// synthesis price, the worst case the adaptive search exists to avoid.
func BenchmarkDSEParetoExhaustiveCold(b *testing.B) {
	searchBench(b, nil, true)
}

// BenchmarkDSEDeltaSweepArrayOnly is the pre-subsystem-cache baseline
// for the same NoC-only sweep: the array cache stays on (the prior
// optimization level) but every candidate still re-assembles cores and
// caches from their arrays. The gap to BenchmarkDSEDeltaSweep is the
// subsystem layer's contribution.
func BenchmarkDSEDeltaSweepArrayOnly(b *testing.B) {
	prev := mcpat.SetSubsysSynthCache(false)
	defer mcpat.SetSubsysSynthCache(prev)
	mcpat.ResetArraySynthCache()
	mcpat.ResetSubsysSynthCache()
	var evaluated int
	for i := 0; i < b.N; i++ {
		res := deltaSweep(b)
		evaluated = res.Evaluated
	}
	b.ReportMetric(float64(evaluated)*float64(b.N)/b.Elapsed().Seconds(), "candidates/s")
}
