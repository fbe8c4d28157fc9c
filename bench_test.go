package mcpat_test

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (see DESIGN.md section 3 for the experiment
// index). Each benchmark exercises the exact code path that regenerates
// the artifact and reports the headline quantity as a custom metric, so
// `go test -bench=. -benchmem` both measures modeling throughput and
// re-derives the paper's numbers. The same rows can be printed with
// cmd/mcpat-tables.

import (
	"math"
	"strings"
	"testing"

	"mcpat"
)

func validateTarget(b *testing.B, match string) *mcpat.ValidationResult {
	b.Helper()
	for _, t := range mcpat.ValidationTargets() {
		lower := strings.ToLower(t.Ref.Name)
		if match == "niagara" && strings.Contains(lower, "niagara2") {
			continue
		}
		if !strings.Contains(lower, match) {
			continue
		}
		var res *mcpat.ValidationResult
		var err error
		for i := 0; i < b.N; i++ {
			res, err = mcpat.Validate(t)
			if err != nil {
				b.Fatal(err)
			}
		}
		return res
	}
	b.Fatalf("no validation target matches %q", match)
	return nil
}

// BenchmarkTableSpecs regenerates T1: the specification table of the four
// validation processors.
func BenchmarkTableSpecs(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		targets := mcpat.ValidationTargets()
		n = len(targets)
		for _, t := range targets {
			if t.Ref.TDP <= 0 || t.Ref.AreaMM2 <= 0 {
				b.Fatal("incomplete reference data")
			}
		}
	}
	b.ReportMetric(float64(n), "targets")
}

// BenchmarkTableNiagara regenerates T2 (Niagara power validation).
func BenchmarkTableNiagara(b *testing.B) {
	r := validateTarget(b, "niagara")
	b.ReportMetric(r.TDPMod, "modeled-W")
	b.ReportMetric(math.Abs(r.TDPErr), "TDP-err-%")
}

// BenchmarkTableNiagara2 regenerates T3 (Niagara2 power validation).
func BenchmarkTableNiagara2(b *testing.B) {
	r := validateTarget(b, "niagara2")
	b.ReportMetric(r.TDPMod, "modeled-W")
	b.ReportMetric(math.Abs(r.TDPErr), "TDP-err-%")
}

// BenchmarkTableAlpha regenerates T4 (Alpha 21364 power validation).
func BenchmarkTableAlpha(b *testing.B) {
	r := validateTarget(b, "alpha")
	b.ReportMetric(r.TDPMod, "modeled-W")
	b.ReportMetric(math.Abs(r.TDPErr), "TDP-err-%")
}

// BenchmarkTableXeon regenerates T5 (Xeon Tulsa power validation).
func BenchmarkTableXeon(b *testing.B) {
	r := validateTarget(b, "tulsa")
	b.ReportMetric(r.TDPMod, "modeled-W")
	b.ReportMetric(math.Abs(r.TDPErr), "TDP-err-%")
}

// BenchmarkTableArea regenerates T6 (die-area validation of all four).
func BenchmarkTableArea(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, t := range mcpat.ValidationTargets() {
			r, err := mcpat.Validate(t)
			if err != nil {
				b.Fatal(err)
			}
			worst = math.Max(worst, math.Abs(r.AreaErr))
		}
	}
	b.ReportMetric(worst, "worst-area-err-%")
}

// BenchmarkFigDeviceTypes regenerates F1 (HP/LSTP/LOP/long-channel sweep
// across nodes).
func BenchmarkFigDeviceTypes(b *testing.B) {
	var rows []mcpat.DeviceRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = mcpat.RunDeviceStudy(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)), "design-points")
	// Headline trend: HP leakage fraction at the final node.
	for _, r := range rows {
		if r.NM == 22 && r.Device == mcpat.HP && !r.LongCh {
			b.ReportMetric(100*r.Leakage/r.TDP, "22nm-HP-leak-%")
		}
	}
}

func clusterSweep(b *testing.B) []mcpat.ClusterResult {
	b.Helper()
	var rs []mcpat.ClusterResult
	for i := 0; i < b.N; i++ {
		var err error
		rs, err = mcpat.RunClusterStudy(mcpat.DefaultStudyParams(), nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	return rs
}

// BenchmarkFigClusterPerf regenerates F2 (performance vs clustering).
func BenchmarkFigClusterPerf(b *testing.B) {
	rs := clusterSweep(b)
	b.ReportMetric(rs[0].Perf/1e9, "cl1-GIPS")
	b.ReportMetric(100*rs[len(rs)-1].Perf/rs[0].Perf, "cl8-rel-perf-%")
}

// BenchmarkFigClusterPower regenerates F3 (runtime power breakdown).
func BenchmarkFigClusterPower(b *testing.B) {
	rs := clusterSweep(b)
	first, last := rs[0], rs[len(rs)-1]
	b.ReportMetric(first.RuntimeBreakdown["NoC"], "cl1-NoC-W")
	b.ReportMetric(last.RuntimeBreakdown["NoC"], "cl8-NoC-W")
}

// BenchmarkFigClusterArea regenerates F4 (area breakdown).
func BenchmarkFigClusterArea(b *testing.B) {
	rs := clusterSweep(b)
	b.ReportMetric(rs[0].Area, "cl1-mm2")
	b.ReportMetric(rs[len(rs)-1].Area, "cl8-mm2")
}

// BenchmarkFigClusterMetrics regenerates F5 (EDP/ED2P/EDAP/ED2AP).
func BenchmarkFigClusterMetrics(b *testing.B) {
	rs := clusterSweep(b)
	best := rs[0]
	for _, r := range rs[1:] {
		if r.ED2AP < best.ED2AP {
			best = r
		}
	}
	b.ReportMetric(float64(best.ClusterSize), "best-ED2AP-cluster")
	b.ReportMetric(best.ED2AP/rs[0].ED2AP, "best-ED2AP-rel")
}

// BenchmarkFigTechScaling regenerates F6 (best clustering per node).
func BenchmarkFigTechScaling(b *testing.B) {
	short := []mcpat.Workload{mcpat.SPLASH2LikeWorkloads()[0]}
	var rows []mcpat.TechRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = mcpat.RunTechStudy(nil, short)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)), "nodes")
	b.ReportMetric(float64(rows[len(rows)-1].BestCluster), "22nm-best-cluster")
}

// BenchmarkChipSynthesis measures raw model throughput: how fast a full
// 8-core chip is synthesized and reported (the operation every
// design-space-exploration loop repeats).
func BenchmarkChipSynthesis(b *testing.B) {
	cfg := mcpat.ValidationTargets()[0].Chip
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := mcpat.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if p.TDP() <= 0 {
			b.Fatal("bad TDP")
		}
	}
}

// BenchmarkColdChipSynthesis is BenchmarkChipSynthesis with both
// synthesis cache layers disabled: every iteration pays the full
// cold-path cost — array-optimizer enumeration plus the serial
// subsystem assembly. This is the
// number the cold-path optimizations move; the gap to
// BenchmarkChipSynthesis is the caches' contribution.
func BenchmarkColdChipSynthesis(b *testing.B) {
	prevArr := mcpat.SetArraySynthCache(false)
	prevSub := mcpat.SetSubsysSynthCache(false)
	defer func() {
		mcpat.SetArraySynthCache(prevArr)
		mcpat.SetSubsysSynthCache(prevSub)
	}()
	cfg := mcpat.ValidationTargets()[0].Chip
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := mcpat.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if p.TDP() <= 0 {
			b.Fatal("bad TDP")
		}
	}
}

// BenchmarkCacheOptimizer measures the array optimizer on a 16MB LLC.
// The array synthesis cache is off for the duration, so every iteration
// solves the LLC's data, tag and buffer arrays rather than reading them
// back from the memo.
func BenchmarkCacheOptimizer(b *testing.B) {
	prev := mcpat.SetArraySynthCache(false)
	defer mcpat.SetArraySynthCache(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := mcpat.NewCache(32, 2.5e9, mcpat.HP, mcpat.CacheConfig{
			Name: "llc", Bytes: 16 << 20, BlockBytes: 64, Assoc: 16, Banks: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
		if c.AccessTime() <= 0 {
			b.Fatal("bad access time")
		}
	}
}

// BenchmarkPerfSim measures the performance substrate.
func BenchmarkPerfSim(b *testing.B) {
	m := mcpat.Machine{
		Cores: 64, ThreadsPerCore: 4, IssueWidth: 1, ClockHz: 2.5e9,
		ClusterSize: 4, L2Latency: 16, FabricHopLat: 4, MemLatency: 150,
		MemBandwidth: 200e9,
	}
	w := mcpat.SPLASH2LikeWorkloads()[1]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mcpat.Simulate(m, w); err != nil {
			b.Fatal(err)
		}
	}
}
