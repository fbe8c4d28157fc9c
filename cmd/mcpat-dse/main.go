// Command mcpat-dse runs a constrained design-space exploration: it
// sweeps core count, per-core L2 capacity, fabric, and clustering at a
// technology node; prunes points that exceed the area/TDP budget; ranks
// the survivors under the chosen objective; and prints the Pareto story.
//
// Two search strategies are available. The default exhaustive sweep
// evaluates every point of the cross product. -search=pareto runs the
// budgeted adaptive multi-objective search instead: it spends -budget
// evaluations (default a tenth of the space), recovers the same
// single-objective winners on the validation spaces, and prints the
// Pareto front over {power, area, delay, ED², EDA}. The pareto search
// is deterministic per -seed: the same seed and space replay the same
// candidate sequence at any -workers count.
//
// The sweep is parallel and fault tolerant: candidates are evaluated by a
// bounded worker pool, a candidate whose evaluation faults or exceeds
// -timeout is reported in a failure section without aborting the sweep
// (unless -keep-going=false), and Ctrl-C stops the sweep promptly while
// still printing the partial ranking.
//
// Example:
//
//	mcpat-dse -nm 22 -cores 16,32,64 -l2kb 128,256,512 \
//	          -max-area 400 -max-tdp 250 -objective perf/watt
//	mcpat-dse -cores 2,4,8,16,32,64,128 -l2kb 64,128,256,512,1024,2048 \
//	          -search pareto -budget 40 -seed 7
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"mcpat"
	"mcpat/internal/cliutil"
	"mcpat/internal/explore"
	"mcpat/internal/guard"
)

func main() {
	var (
		nm        = flag.Float64("nm", 22, "technology node (nm)")
		clockGHz  = flag.Float64("clock", 2.5, "clock (GHz)")
		threads   = flag.Int("threads", 4, "hardware threads per core")
		cores     = flag.String("cores", "16,32,64", "core counts to sweep")
		l2kb      = flag.String("l2kb", "256", "per-core L2 KB to sweep")
		clusters  = flag.String("clusters", "1,2,4", "cluster sizes to sweep (mesh)")
		maxArea   = flag.Float64("max-area", 400, "area budget (mm^2, 0 = none)")
		maxTDP    = flag.Float64("max-tdp", 250, "TDP budget (W, 0 = none)")
		objName   = flag.String("objective", "throughput", "throughput|perf/watt|ed2ap")
		search    = flag.String("search", "exhaustive", "search strategy: exhaustive|pareto")
		budget    = flag.Int("budget", 0, "pareto evaluation budget (0 = a tenth of the space)")
		seed      = flag.Int64("seed", 1, "pareto search RNG seed (same seed replays the same search)")
		topN      = flag.Int("top", 8, "candidates to print")
		workers   = flag.Int("workers", 0, "parallel evaluations (0 = GOMAXPROCS)")
		timeout   = flag.Duration("timeout", 0, "per-candidate evaluation deadline (0 = none)")
		keepGoing = flag.Bool("keep-going", true, "continue the sweep past failed candidates")
		remote    = flag.String("remote", "", "comma-separated mcpatd -worker base URLs: shard the exhaustive sweep across them (plus this process) with work-stealing; results are bit-identical to a local sweep")
		stats     = flag.Bool("stats", false, "print synthesis-cache statistics (array and subsystem reuse) for the sweep")
		noCache   = flag.Bool("no-cache", false, "disable the synthesis result caches (array and subsystem)")
		asJSON    = flag.Bool("json", false, "emit the sweep as JSON (candidates, failures, cache stats) - the same schema the mcpatd service returns")
	)
	flag.Parse()

	obj, err := explore.ParseObjective(*objName)
	if err != nil {
		cliutil.Usagef("mcpat-dse", "%v", err)
	}

	searchKind, err := mcpat.ParseDSESearchKind(*search)
	if err != nil {
		cliutil.Usagef("mcpat-dse", "%v", err)
	}

	if *noCache {
		mcpat.SetArraySynthCache(false)
		mcpat.SetSubsysSynthCache(false)
	}

	remotes := cliutil.SplitCSV(*remote)
	if len(remotes) > 0 && searchKind != mcpat.SearchExhaustive {
		cliutil.Usagef("mcpat-dse", "-remote shards exhaustive sweeps only (the pareto search is sequential by nature)")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	p := mcpat.DSEParams{NM: *nm, ClockHz: *clockGHz * 1e9, Threads: *threads}
	space := mcpat.DSESpace{
		Cores:        ints(*cores),
		L2PerCoreKB:  ints(*l2kb),
		ClusterSizes: ints(*clusters),
	}
	cons := mcpat.DSEConstraints{MaxAreaMM2: *maxArea, MaxTDP: *maxTDP}

	var coord *mcpat.DistribMetrics
	if len(remotes) > 0 {
		coord = &mcpat.DistribMetrics{}
	}
	res, err := mcpat.ExploreDesignSpaceDistributed(ctx, p, space, cons, obj,
		&mcpat.DistribOptions{
			Options: mcpat.DSEOptions{
				Workers:          *workers,
				CandidateTimeout: *timeout,
				FailFast:         !*keepGoing,
				Search:           searchKind,
				Budget:           *budget,
				Seed:             *seed,
			},
			Remotes: remotes,
			Metrics: coord,
		})
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		fmt.Fprintln(os.Stderr, "mcpat-dse:", guard.FirstLine(err.Error()))
		if res == nil {
			os.Exit(cliutil.ExitCode(err))
		}
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "mcpat-dse: interrupted; showing partial results")
	}

	if *asJSON {
		rep := mcpat.NewDSEReport(res, obj)
		if coord != nil {
			st := coord.Snapshot()
			rep.Distrib = &st
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if encErr := enc.Encode(rep); encErr != nil {
			fmt.Fprintln(os.Stderr, "mcpat-dse:", encErr)
			os.Exit(cliutil.ExitInternal)
		}
		exit(interrupted, err)
	}

	if res.Search == mcpat.SearchPareto {
		fmt.Printf("Explored %d of %d design points (%d feasible) at %gnm under %s [pareto search]\n\n",
			res.Evaluated, res.SpaceSize, res.Feasible, *nm, *objName)
	} else {
		fmt.Printf("Explored %d design points (%d feasible) at %gnm under %s\n\n",
			res.Evaluated, res.Feasible, *nm, *objName)
	}
	fmt.Printf("%6s %6s %8s %8s %8s %8s %10s %10s  %s\n",
		"cores", "l2KB", "cluster", "TDP W", "mm^2", "GIPS", "GIPS/W", "score", "status")
	shown := 0
	for _, c := range res.Candidates {
		if shown >= *topN {
			break
		}
		status := "ok"
		if !c.Feasible {
			status = c.Reject
		}
		fmt.Printf("%6d %6d %8d %8.1f %8.1f %8.1f %10.2f %10.3g  %s\n",
			c.Cores, c.L2PerCoreKB, c.ClusterSize, c.TDP, c.AreaMM2,
			c.Perf/1e9, c.Perf/1e9/c.RunW, c.Score, status)
		shown++
	}
	if len(res.Failures) > 0 {
		fmt.Printf("\n%d candidate(s) failed to evaluate:\n", len(res.Failures))
		for _, f := range res.Failures {
			fmt.Printf("  %s\n", guard.FirstLine(f.String()))
		}
	}
	if res.Best != nil {
		fmt.Printf("\nBest: %d cores, %d KB L2/core, cluster=%d  (%.1f W, %.1f mm^2, %.1f GIPS)\n",
			res.Best.Cores, res.Best.L2PerCoreKB, res.Best.ClusterSize,
			res.Best.TDP, res.Best.AreaMM2, res.Best.Perf/1e9)
	} else {
		fmt.Println("\nNo feasible design under the given budget.")
	}
	if len(res.Front) > 0 {
		fmt.Printf("\nPareto front (%d non-dominated design points over power/area/delay/ED²/EDA):\n", len(res.Front))
		fmt.Printf("%6s %6s %8s %8s %8s %8s %12s\n",
			"cores", "l2KB", "cluster", "watts", "mm^2", "GIPS", "ED2AP")
		for _, c := range res.Front {
			d := 1 / c.Perf
			e := c.RunW * d
			fmt.Printf("%6d %6d %8d %8.1f %8.1f %8.1f %12.3g\n",
				c.Cores, c.L2PerCoreKB, c.ClusterSize, c.RunW, c.AreaMM2,
				c.Perf/1e9, e*d*d*c.AreaMM2)
		}
	}
	if *stats {
		cs := res.Cache
		fmt.Printf("\nArray synthesis cache: %d hits, %d misses, %d shared, %d bypassed (%.1f%% hit rate, %d resident entries)\n",
			cs.Hits, cs.Misses, cs.Shared, cs.Bypassed, 100*cs.HitRate(), cs.Entries)
		ss := res.Subsys
		tot := ss.Total()
		fmt.Printf("Subsystem cache: %d hits, %d misses, %d shared, %d bypassed (%.1f%% hit rate, %d resident entries)\n",
			tot.Hits, tot.Misses, tot.Shared, tot.Bypassed, 100*ss.HitRate(), ss.Entries)
		for i, k := range ss.Kinds {
			if k == (mcpat.SubsysKindStats{}) {
				continue
			}
			fmt.Printf("  %-7s %d hits, %d misses\n", mcpat.SubsysKindName(i), k.Hits, k.Misses)
		}
		fmt.Printf("Array optimizer: %d organizations evaluated\n", res.ArrayOpt.Evaluated)
	}
	if *stats && coord != nil {
		st := coord.Snapshot()
		fmt.Printf("\nDistributed sweep: %d shard(s) dispatched (%d stolen, %d retried)\n",
			st.ShardsDispatched, st.ShardsStolen, st.ShardsRetried)
		for _, w := range st.Workers {
			fmt.Printf("  %-28s %d shard(s), %d candidate(s), %.1f cand/s\n",
				w.Name, w.Shards, w.Candidates, w.Throughput)
		}
	}
	exit(interrupted, err)
}

// exit applies the shared CLI convention: 130 for an interrupt (shell
// style), otherwise the guard-kind mapping (2=config, 3=infeasible/
// model-domain, 1=internal, 0=success).
func exit(interrupted bool, err error) {
	if interrupted {
		os.Exit(130)
	}
	os.Exit(cliutil.ExitCode(err))
}

func ints(csv string) []int {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			cliutil.Usagef("mcpat-dse", "bad integer %q", part)
		}
		out = append(out, v)
	}
	return out
}
