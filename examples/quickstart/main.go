// Quickstart: build a small multicore chip, print its TDP power/area
// report, then feed runtime statistics from the bundled performance model
// and print the runtime power - the complete McPAT workflow in ~60 lines.
package main

import (
	"fmt"
	"log"

	"mcpat"
)

func main() {
	// A 4-core, 2-thread in-order CMP at 45 nm with a banked shared L2
	// and a flat crossbar, like a small Niagara-class part.
	cfg := mcpat.Config{
		Name:     "quickstart-cmp",
		NM:       45,
		ClockHz:  2.0e9,
		NumCores: 4,
		Core: mcpat.CoreConfig{
			Threads: 2,
			ICache:  mcpat.CacheParams{Bytes: 16 * 1024, BlockBytes: 32, Assoc: 4},
			DCache:  mcpat.CacheParams{Bytes: 16 * 1024, BlockBytes: 32, Assoc: 4},
			IntALUs: 1, FPUs: 1, MulDivs: 1,
		},
		L2:  &mcpat.CacheConfig{Name: "L2", Bytes: 2 << 20, BlockBytes: 64, Assoc: 8, Banks: 4},
		NoC: mcpat.NoCSpec{Kind: mcpat.Crossbar, FlitBits: 128},
		MC:  &mcpat.MCConfig{Channels: 2, PeakBandwidth: 25e9, LVDS: true},
	}

	p, err := mcpat.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Peak (TDP) analysis needs no statistics.
	rep := p.Report(nil)
	fmt.Printf("=== %s: TDP analysis ===\n", cfg.Name)
	fmt.Printf("TDP  = %.2f W  (dynamic %.2f W, leakage %.2f W)\n",
		rep.Peak(), rep.PeakDynamic, rep.Leakage())
	fmt.Printf("Area = %.2f mm^2\n\n", rep.Area*1e6)
	fmt.Print(rep.Format(1))

	// 2. Runtime analysis: get statistics from the bundled performance
	// model (any external simulator works through the same interface).
	sim, err := mcpat.Simulate(mcpat.Machine{
		Cores: 4, ThreadsPerCore: 2, IssueWidth: 1,
		ClockHz: cfg.ClockHz, L2Latency: 16, MemLatency: 150,
		MemBandwidth: 25e9,
	}, mcpat.SPLASH2LikeWorkloads()[0])
	if err != nil {
		log.Fatal(err)
	}
	stats := &mcpat.Stats{
		CoreRun:    sim.CoreActivity,
		L2Reads:    sim.L2ReadsSec,
		L2Writes:   sim.L2WritesSec,
		NoCFlits:   sim.L2AccessesSec,
		MCAccesses: sim.MemAccessesS,
	}
	runRep := p.Report(stats)
	fmt.Printf("\n=== runtime analysis (workload %q, IPC %.2f/core) ===\n",
		sim.Workload.Name, sim.CoreIPC)
	fmt.Printf("Runtime power = %.2f W (vs TDP %.2f W)\n",
		runRep.Runtime(), runRep.Peak())
}
