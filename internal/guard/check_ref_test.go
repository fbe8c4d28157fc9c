package guard

import (
	"fmt"
	"math"

	"mcpat/internal/power"
)

// RefCheckReport is the test reference for CheckReport: the walker it
// replaced, which concatenates every node's path on the way down. It is
// exported to the package's external tests, which compare the two on
// synthetic and real chip reports.
var RefCheckReport = refCheckReport

func refCheckReport(rep *power.Item, opts *CheckOptions) Diagnostics {
	if rep == nil {
		return Diagnostics{{Path: "", Field: "report", Msg: "nil report"}}
	}
	o := opts.defaults()
	var ds Diagnostics
	refCheckItem(rep, rep.Name, o, &ds)
	if rep.RuntimeDynamic > 0 {
		peak := rep.Peak()
		if run := rep.Runtime(); peak > 0 && run > o.RuntimeTDPMult*peak {
			ds = append(ds, Diagnostic{
				Path: rep.Name, Field: "Runtime", Value: run,
				Msg: fmt.Sprintf("runtime power %.3g W exceeds %g x TDP (%.3g W)",
					run, o.RuntimeTDPMult, peak),
			})
		}
	}
	return ds
}

func refFieldsOf(it *power.Item) [6]struct {
	name string
	val  float64
} {
	return [6]struct {
		name string
		val  float64
	}{
		{"Area", it.Area},
		{"PeakDynamic", it.PeakDynamic},
		{"RuntimeDynamic", it.RuntimeDynamic},
		{"SubLeak", it.SubLeak},
		{"GateLeak", it.GateLeak},
		{"LeakSaved", it.LeakSaved},
	}
}

func refCheckItem(it *power.Item, path string, o CheckOptions, ds *Diagnostics) {
	for _, f := range refFieldsOf(it) {
		switch {
		case math.IsNaN(f.val):
			*ds = append(*ds, Diagnostic{Path: path, Field: f.name, Value: f.val, Msg: "NaN"})
		case math.IsInf(f.val, 0):
			*ds = append(*ds, Diagnostic{Path: path, Field: f.name, Value: f.val, Msg: "infinite"})
		case f.val < 0:
			*ds = append(*ds, Diagnostic{Path: path, Field: f.name, Value: f.val, Msg: "negative"})
		}
	}
	if it.LeakSaved > 0 {
		if leak := it.SubLeak + it.GateLeak; it.LeakSaved > leak*(1+o.SumTolerance) {
			*ds = append(*ds, Diagnostic{
				Path: path, Field: "LeakSaved", Value: it.LeakSaved,
				Msg: fmt.Sprintf("power-gating savings exceed total leakage %.3g W", leak),
			})
		}
	}
	if len(it.Children) > 0 {
		var sums [6]float64
		for _, c := range it.Children {
			for i, f := range refFieldsOf(c) {
				sums[i] += f.val
			}
		}
		for i, f := range refFieldsOf(it) {
			sum := sums[i]
			if !isFinite(sum) || !isFinite(f.val) {
				continue
			}
			if sum > f.val*(1+o.SumTolerance)+1e-12 {
				*ds = append(*ds, Diagnostic{
					Path: path, Field: f.name, Value: f.val,
					Msg: fmt.Sprintf("children sum to %.6g, exceeding the parent total", sum),
				})
			}
		}
	}
	for _, c := range it.Children {
		refCheckItem(c, path+"."+c.Name, o, ds)
	}
}
