// Command mcpat-trace turns a gem5 run into a time-series power trace:
// it maps the run's config.json onto a native chip description
// (template-free, no XML), synthesizes the chip once, scores every
// statistics dump in stats.txt as one interval, and writes the trace as
// CSV (default), NDJSON (-ndjson, the /v1/trace wire format), or a
// single JSON document (-json).
//
// With -thermal the power→temperature→DVFS loop closes around the trace:
// each interval's power heats a lumped thermal model of the die (per-block
// spreading resistances from the chip floorplan with -floorplan), the
// resulting hotspot temperature retunes the next interval's leakage, and
// an optional governor (-governor headroom) throttles frequency/voltage
// against the junction limit. Closed-loop traces gain temperature_k,
// freq_hz, and throttled columns.
//
// Usage:
//
//	mcpat-trace -config config.json -stats stats.txt [-json|-ndjson] [-notes]
//	            [-thermal -rtheta K/W [-ambient K] [-tjmax K] [-tau s]
//	             [-floorplan] [-governor none|headroom] [-target K]]
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"mcpat"
	"mcpat/internal/cliutil"
)

func main() {
	var (
		configFile = flag.String("config", "", "gem5 config.json of the run")
		statsFile  = flag.String("stats", "", "gem5 stats.txt (multi-dump)")
		asJSON     = flag.Bool("json", false, "emit the whole trace as one JSON document")
		asNDJSON   = flag.Bool("ndjson", false, "emit NDJSON records (the /v1/trace stream format)")
		notes      = flag.Bool("notes", false, "print the config-mapping provenance to stderr")

		thermalOn = flag.Bool("thermal", false, "close the power/thermal/DVFS loop around the trace")
		rtheta    = flag.Float64("rtheta", 0, "junction-to-ambient thermal resistance in K/W (required with -thermal)")
		ambient   = flag.Float64("ambient", 0, "ambient temperature in K (0 = 318 K default)")
		tjmax     = flag.Float64("tjmax", 0, "junction temperature limit in K (0 = none; sets the headroom governor's default setpoint)")
		tau       = flag.Float64("tau", 0, "thermal time constant in s (0 = quasi-static)")
		useFloor  = flag.Bool("floorplan", false, "per-subsystem thermal blocks from the chip floorplan (default: whole-die lump)")
		governor  = flag.String("governor", "none", "DVFS policy: none or headroom")
		targetK   = flag.Float64("target", 0, "headroom governor throttle setpoint in K (0 = tjmax-5)")
	)
	flag.Parse()
	if *configFile == "" || *statsFile == "" {
		flag.Usage()
		cliutil.Usagef("mcpat-trace", "-config and -stats are required")
	}
	if *asJSON && *asNDJSON {
		cliutil.Usagef("mcpat-trace", "-json and -ndjson are mutually exclusive")
	}

	cfgF, err := os.Open(*configFile)
	if err != nil {
		fatal(err)
	}
	defer cfgF.Close()
	statsF, err := os.Open(*statsFile)
	if err != nil {
		fatal(err)
	}
	defer statsF.Close()

	eng, intervals, res, err := mcpat.TraceFromGem5(cfgF, statsF)
	if err != nil {
		fatal(err)
	}
	if *thermalOn {
		if *rtheta <= 0 {
			cliutil.Usagef("mcpat-trace", "-thermal requires a positive -rtheta (K/W)")
		}
		gov, err := mcpat.NewGovernor(*governor, *targetK, nil)
		if err != nil {
			cliutil.Usagef("mcpat-trace", "-governor: %v", err)
		}
		if err := eng.EnableLoop(mcpat.TraceLoopOptions{
			Package: mcpat.PackageSpec{
				RthetaJA:   *rtheta,
				AmbientK:   *ambient,
				MaxTjK:     *tjmax,
				TimeConstS: *tau,
			},
			UseFloorplan: *useFloor,
			Governor:     gov,
		}); err != nil {
			fatal(err)
		}
	}
	if *notes {
		fmt.Fprintf(os.Stderr, "mcpat-trace: mapped %s (%s defaults) from %s:\n",
			res.CPUType, res.Preset, *configFile)
		for _, n := range res.Notes {
			fmt.Fprintf(os.Stderr, "  %-24s = %-12s %s\n", n.Field, n.Value, n.Source)
		}
	}

	tr, err := eng.Run(context.Background(), intervals, nil)
	if err != nil {
		fatal(err)
	}

	// One buffer for every format, so records and rows do not each cost
	// a write to stdout; it is flushed before the summary on stderr.
	out := bufio.NewWriter(os.Stdout)
	switch {
	case *asNDJSON:
		err = tr.WriteNDJSON(out)
	case *asJSON:
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		err = enc.Encode(tr)
	default:
		err = tr.WriteCSV(out)
	}
	if err == nil {
		err = out.Flush()
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr,
		"mcpat-trace: %d intervals over %.6f s: %.3f J, avg %.3f W, peak %.3f W (interval %d)\n",
		tr.Summary.Intervals, tr.Summary.SimSeconds, tr.Summary.EnergyJ,
		tr.Summary.AvgW, tr.Summary.PeakW, tr.Summary.PeakIndex)
	if *thermalOn {
		fmt.Fprintf(os.Stderr,
			"mcpat-trace: thermal: max %.1f K, final %.1f K, %d/%d intervals throttled\n",
			tr.Summary.MaxTempK, tr.Summary.FinalTempK,
			tr.Summary.ThrottledIntervals, tr.Summary.Intervals)
	}
}

// fatal maps guard error kinds to the shared CLI exit codes (2=config,
// 3=infeasible/model-domain, 1=internal).
func fatal(err error) {
	cliutil.Fatal("mcpat-trace", err)
}
