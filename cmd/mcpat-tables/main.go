// Command mcpat-tables regenerates every table and figure of the paper's
// evaluation from the models in this repository (see DESIGN.md section 3
// for the experiment index):
//
//	T1  -table specs       modeled-processor specification table
//	T2  -table niagara     Niagara power validation
//	T3  -table niagara2    Niagara2 power validation
//	T4  -table alpha21364  Alpha 21364 power validation
//	T5  -table xeon        Xeon Tulsa power validation
//	T6  -table area        die-area validation of all four targets
//	F1  -fig devices       device-type study across nodes
//	F2  -fig perf          case-study performance vs clustering
//	F3  -fig power         case-study runtime power breakdown
//	F4  -fig area          case-study area breakdown
//	F5  -fig metrics       EDP / ED^2P / EDAP / ED^2AP vs clustering
//	F6  -fig scaling       best clustering per technology node
//
// Run with -all to print everything. The rendering itself lives in
// internal/tables, where every artifact is protected by a golden test.
package main

import (
	"flag"
	"os"

	"mcpat/internal/cliutil"
	"mcpat/internal/tables"
)

func main() {
	var (
		table = flag.String("table", "", "table to print: specs|niagara|niagara2|alpha21364|xeon|area")
		fig   = flag.String("fig", "", "figure to print: devices|perf|power|area|metrics|scaling")
		all   = flag.Bool("all", false, "print every table and figure")
	)
	flag.Parse()

	var err error
	switch {
	case *all:
		err = tables.All(os.Stdout)
	case *table != "":
		err = tables.Table(os.Stdout, *table)
	case *fig != "":
		err = tables.Figure(os.Stdout, *fig)
	default:
		flag.Usage()
		os.Exit(cliutil.ExitConfig)
	}
	if err != nil {
		// Shared CLI convention: 2=config, 3=infeasible/model-domain,
		// 1=internal.
		cliutil.Fatal("mcpat-tables", err)
	}
}
