package mcpat_test

// Distributed-sweep benchmarks: the coordinator/worker fan-out measured
// against the single-process engine on the same sweep. Workers are real
// serve.Server instances behind httptest listeners, so every shard pays
// the full NDJSON wire protocol — this is the honest per-shard overhead
// a `mcpat-dse -remote` user sees, minus only real network latency.
// Note that in-process workers share the process-wide synthesis caches,
// so the warm numbers isolate coordination cost from synthesis cost;
// scaling beyond 1x requires actual hardware parallelism (see
// BENCH_dse.json's host note — on a 1-hardware-thread host the workers
// serialize and the distributed path can only add overhead).

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"mcpat"
	"mcpat/internal/serve"
)

// distribBenchSweep is a 140-candidate sweep — large enough that the
// coordinator splits it into several shards per worker (its minimum
// shard is 8 candidates) and work-stealing has something to steal.
func distribBenchSweep() (mcpat.DSEParams, mcpat.DSESpace, mcpat.DSEConstraints) {
	return mcpat.DSEParams{NM: 22, ClockHz: 2.5e9, Threads: 4},
		mcpat.DSESpace{
			Cores:        []int{2, 4, 8, 16, 32, 64, 128},
			L2PerCoreKB:  []int{32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384},
			ClusterSizes: []int{1, 2},
		},
		mcpat.DSEConstraints{MaxAreaMM2: 400, MaxTDP: 300}
}

// startBenchWorkers brings up n worker-mode servers on loopback
// listeners and returns their base URLs.
func startBenchWorkers(b *testing.B, n int) []string {
	b.Helper()
	urls := make([]string, n)
	for i := range urls {
		srv := serve.New(serve.Config{WorkerMode: true})
		ts := httptest.NewServer(srv.Handler())
		b.Cleanup(func() {
			ts.Close()
			_ = srv.Shutdown(context.Background())
		})
		urls[i] = ts.URL
	}
	return urls
}

// BenchmarkDSEDistributed compares the single-process engine (the
// baseline sub-benchmark) against the distributed coordinator fanned
// out over 1, 2, and 4 HTTP workers. The coordinator's built-in local
// worker is in every workers-N pool too, so a workers-N variant has
// N+1 workers and the local one takes some shards without the wire.
// All variants run warm (synthesis caches enabled and shared), so the
// deltas are coordination and wire cost; scaling efficiency is
// workers-N candidates/s over the baseline. BENCH_dse.json records
// the reference numbers.
func BenchmarkDSEDistributed(b *testing.B) {
	p, space, cons := distribBenchSweep()

	b.Run("baseline", func(b *testing.B) {
		mcpat.ResetArraySynthCache()
		b.ReportAllocs()
		var evaluated int
		for i := 0; i < b.N; i++ {
			res, err := mcpat.ExploreDesignSpaceContext(context.Background(),
				p, space, cons, mcpat.MaxThroughput, &mcpat.DSEOptions{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			evaluated = res.Evaluated
		}
		b.ReportMetric(float64(evaluated)*float64(b.N)/b.Elapsed().Seconds(), "candidates/s")
	})

	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", n), func(b *testing.B) {
			remotes := startBenchWorkers(b, n)
			mcpat.ResetArraySynthCache()
			b.ReportAllocs()
			b.ResetTimer()
			var evaluated int
			for i := 0; i < b.N; i++ {
				res, err := mcpat.ExploreDesignSpaceDistributed(context.Background(),
					p, space, cons, mcpat.MaxThroughput, &mcpat.DistribOptions{
						Options: mcpat.DSEOptions{Workers: 1},
						Remotes: remotes,
					})
				if err != nil {
					b.Fatal(err)
				}
				evaluated = res.Evaluated
			}
			b.ReportMetric(float64(evaluated)*float64(b.N)/b.Elapsed().Seconds(), "candidates/s")
		})
	}
}
