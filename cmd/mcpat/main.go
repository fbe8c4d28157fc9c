// Command mcpat is the command-line front end of the framework, mirroring
// the original tool's interface: it reads a McPAT-style XML configuration
// (plus optional runtime statistics), synthesizes the chip, and prints
// the hierarchical power/area report.
//
// Usage:
//
//	mcpat -infile chip.xml [-print_level N] [-stats]
//	mcpat -template niagara|niagara2|alpha21364|xeon > chip.xml
//
// -print_level controls report depth (0 = chip totals only, -1 = full
// tree). -template writes a ready-to-run XML description of one of the
// validation processors to stdout.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mcpat"
	"mcpat/internal/cliutil"
)

func main() {
	var (
		infile     = flag.String("infile", "", "XML chip configuration (with optional <stat> entries)")
		printLevel = flag.Int("print_level", 2, "report depth (-1 = unlimited)")
		template   = flag.String("template", "", "write a template XML; see -list-templates for names")
		listTmpl   = flag.Bool("list-templates", false, "list available template names")
		withStats  = flag.Bool("stats", true, "apply <stat> entries from the input as runtime statistics")
		timing     = flag.Bool("timing", false, "print the per-component timing report (critical paths)")
		asJSON     = flag.Bool("json", false, "emit the report as JSON instead of text")
	)
	flag.Parse()

	if *listTmpl {
		for _, p := range mcpat.Presets() {
			fmt.Printf("%-14s %s\n", p.Name, p.Description)
		}
		return
	}
	if *template != "" {
		if err := writeTemplate(*template); err != nil {
			fatal(err)
		}
		return
	}
	if *infile == "" {
		flag.Usage()
		cliutil.Usagef("mcpat", "-infile or -template required")
	}

	cfg, stats, err := mcpat.LoadXMLFile(*infile)
	if err != nil {
		fatal(err)
	}
	p, err := mcpat.New(cfg)
	if err != nil {
		fatal(err)
	}
	if !*withStats {
		stats = nil
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

	fmt.Printf("McPAT results for %s (%gnm, %.2f GHz)\n", cfg.Name, cfg.NM, cfg.ClockHz/1e9)
	fmt.Printf("  TDP          = %.3f W (dynamic %.3f W + leakage %.3f W)\n",
		rep.Peak(), rep.PeakDynamic, rep.Leakage())
	if rep.RuntimeDynamic > 0 {
		// Runtime leakage is net of what power gating recovers.
		fmt.Printf("  Runtime power= %.3f W (dynamic %.3f W + leakage %.3f W)\n",
			rep.Runtime(), rep.RuntimeDynamic, rep.Leakage()-rep.LeakSaved)
	}
	fmt.Printf("  Die area     = %.2f mm^2\n\n", rep.Area*1e6)
	fmt.Print(rep.Format(*printLevel))

	if *timing {
		fmt.Printf("\nTiming report (clock period %.3f ns):\n", 1e9/cfg.ClockHz)
		fmt.Printf("%-20s %10s %10s %8s %5s\n", "component", "delay ns", "cycle ns", "cycles", "met")
		for _, e := range p.TimingReport() {
			fmt.Printf("%-20s %10.3f %10.3f %8.2f %5v\n",
				e.Component, e.Delay*1e9, e.Cycle*1e9, e.Cycles, e.Met)
		}
	}
}

func writeTemplate(name string) error {
	name = strings.ToLower(name)
	if p, err := mcpat.PresetByName(name); err == nil {
		return mcpat.WriteXML(os.Stdout, p.Config)
	}
	// Fall back to substring matching against preset names.
	for _, p := range mcpat.Presets() {
		if strings.Contains(p.Name, name) {
			return mcpat.WriteXML(os.Stdout, p.Config)
		}
	}
	return fmt.Errorf("mcpat: unknown template %q (see -list-templates)", name)
}

// fatal maps guard error kinds to the shared CLI exit codes (2=config,
// 3=infeasible/model-domain, 1=internal) and prints the component path
// the error carries.
func fatal(err error) {
	cliutil.Fatal("mcpat", err)
}
