// Command mcpat-m5 is the gem5/M5 bridge: it reads an XML chip
// configuration and a gem5-style stats.txt dump, converts the simulator's
// counters into runtime activity, and prints the combined TDP + runtime
// power report - the classic McPAT workflow with a performance simulator
// in the loop.
//
// Usage:
//
//	mcpat-m5 -infile chip.xml -stats stats.txt [-print_level N] [-json]
package main

import (
	"flag"
	"fmt"
	"os"

	"mcpat"
	"mcpat/internal/cliutil"
)

func main() {
	var (
		infile     = flag.String("infile", "", "XML chip configuration")
		statsFile  = flag.String("stats", "", "gem5/M5 stats.txt dump")
		printLevel = flag.Int("print_level", 1, "report depth (-1 = unlimited)")
		asJSON     = flag.Bool("json", false, "emit the report as JSON")
		interval   = flag.Int("interval", -1, "statistics dump to use (0-based; -1 = last)")
	)
	flag.Parse()
	if *infile == "" || *statsFile == "" {
		flag.Usage()
		cliutil.Usagef("mcpat-m5", "-infile and -stats are required")
	}

	cfg, _, err := mcpat.LoadXMLFile(*infile)
	if err != nil {
		fatal(err)
	}
	f, err := os.Open(*statsFile)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	dumps, err := mcpat.ParseM5StatsAll(f)
	if err != nil {
		fatal(err)
	}
	idx := *interval
	if idx < 0 {
		idx = len(dumps) - 1
	}
	stats, err := mcpat.M5ToStatsAt(dumps, idx, cfg.ClockHz, cfg.NumCores)
	if err != nil {
		fatal(err)
	}

	p, err := mcpat.New(cfg)
	if err != nil {
		fatal(err)
	}
	// The output guard /v1/evaluate applies: a report it would reject
	// is not printed as a valid chip.
	rep, ds, err := p.Check(stats)
	if err != nil {
		fatal(err)
	}
	if err := ds.Err(); err != nil {
		fatal(err)
	}

	if *asJSON {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("McPAT + gem5 results for %s (%gnm, %.2f GHz)\n", cfg.Name, cfg.NM, cfg.ClockHz/1e9)
	fmt.Printf("  TDP           = %.3f W\n", rep.Peak())
	fmt.Printf("  Runtime power = %.3f W (dynamic %.3f W + leakage %.3f W)\n",
		rep.Runtime(), rep.RuntimeDynamic, rep.Leakage()-rep.LeakSaved)
	fmt.Printf("  Die area      = %.2f mm^2\n\n", rep.Area*1e6)
	fmt.Print(rep.Format(*printLevel))
}

// fatal maps guard error kinds to the shared CLI exit codes (2=config,
// 3=infeasible/model-domain, 1=internal).
func fatal(err error) {
	cliutil.Fatal("mcpat-m5", err)
}
