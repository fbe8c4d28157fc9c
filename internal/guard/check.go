package guard

import (
	"fmt"
	"math"
	"strings"

	"mcpat/internal/power"
)

// Diagnostic is one sanity-check finding about a report tree.
type Diagnostic struct {
	Path  string  // report-tree path, e.g. "chip.Cores.core.ifu"
	Field string  // offending quantity ("Area", "PeakDynamic", ...)
	Value float64 // the offending value
	Msg   string  // what is wrong with it
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s.%s = %g: %s", d.Path, d.Field, d.Value, d.Msg)
}

// Diagnostics is the typed finding list CheckReport returns.
type Diagnostics []Diagnostic

func (ds Diagnostics) String() string {
	if len(ds) == 0 {
		return "ok"
	}
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = d.String()
	}
	return strings.Join(parts, "; ")
}

// Err converts a non-empty diagnostic list into an ErrModelDomain; an
// empty list yields nil.
func (ds Diagnostics) Err() error {
	if len(ds) == 0 {
		return nil
	}
	return Domainf("", "%d sanity violations: %s", len(ds), ds.String())
}

// CheckOptions tunes the report sanity pass. The zero value selects the
// defaults documented on each field.
type CheckOptions struct {
	// SumTolerance is the relative slack allowed when comparing the sum
	// of a node's children against the node's own stored total. Parents
	// may legitimately exceed their children (self contributions, area
	// overheads), so only children-exceed-parent is flagged.
	// Default 1e-6.
	SumTolerance float64

	// RuntimeTDPMult bounds root runtime power at this multiple of peak
	// (TDP) power; runtime beyond it means the activity vector or the
	// model left the physical regime. Default 3.
	RuntimeTDPMult float64
}

func (o *CheckOptions) defaults() CheckOptions {
	out := CheckOptions{SumTolerance: 1e-6, RuntimeTDPMult: 3}
	if o != nil {
		if o.SumTolerance > 0 {
			out.SumTolerance = o.SumTolerance
		}
		if o.RuntimeTDPMult > 0 {
			out.RuntimeTDPMult = o.RuntimeTDPMult
		}
	}
	return out
}

// CheckReport verifies that a synthesized chip report is physical: every
// power/area quantity is finite and non-negative, component subtrees sum
// to no more than their parents (within tolerance), power-gating savings
// never exceed the leakage they gate, and runtime power stays within a
// sane multiple of TDP. It returns every violation found rather than
// stopping at the first, so a caller can log the full picture. The tree
// is laid out as rows on the stack and checked by CheckScore, so a clean
// report is checked without allocating.
func CheckReport(rep *power.Item, opts *CheckOptions) Diagnostics {
	if rep == nil {
		return Diagnostics{{Path: "", Field: "report", Msg: "nil report"}}
	}
	var rows [flatRows]power.Row
	var names [flatRows]string
	var cols [2 * flatRows]float64
	return CheckScore(power.Flatten(rep, rows[:], names[:], cols[:]), opts)
}

// flatRows is the size of a report CheckReport lays out without a heap
// buffer; a larger tree is still checked.
const flatRows = 96

// CheckScore is CheckReport over the rows of a scored report: the
// per-node checks, the children-sum check and the root runtime-vs-TDP
// bound in one pass, with findings in the order a depth-first walk of
// the tree meets them. A row that passes is checked with a few compares
// per column; node paths are found and joined only for a diagnostic.
func CheckScore(s power.Score, opts *CheckOptions) Diagnostics {
	o := opts.defaults()
	tol := 1 + o.SumTolerance
	var ds Diagnostics
	for r := 0; r < s.Len(); r++ {
		area, peak, run := s.Area(r), s.PeakDynamic(r), s.RuntimeDynamic(r)
		sub, gate, saved := s.SubLeak(r), s.GateLeak(r), s.LeakSaved(r)
		if !(nonNegative(area) && nonNegative(peak) && nonNegative(run) &&
			nonNegative(sub) && nonNegative(gate) && nonNegative(saved)) {
			for i, x := range s.Values(r) {
				switch {
				case math.IsNaN(x):
					ds.add(s, r, fieldNames[i], x, "NaN")
				case math.IsInf(x, 0):
					ds.add(s, r, fieldNames[i], x, "infinite")
				case x < 0:
					ds.add(s, r, fieldNames[i], x, "negative")
				}
			}
		}
		if saved > 0 {
			if leak := sub + gate; saved > leak*tol {
				ds.add(s, r, "LeakSaved", saved,
					fmt.Sprintf("power-gating savings exceed total leakage %.3g W", leak))
			}
		}
		end := s.End(r)
		if end == r+1 {
			continue
		}
		var sArea, sPeak, sRun, sSub, sGate, sSaved float64
		for c := r + 1; c < end; c = s.End(c) {
			sArea += s.Area(c)
			sPeak += s.PeakDynamic(c)
			sRun += s.RuntimeDynamic(c)
			sSub += s.SubLeak(c)
			sGate += s.GateLeak(c)
			sSaved += s.LeakSaved(c)
		}
		// Absolute slack keeps near-zero quantities from tripping on
		// float rounding.
		if sArea > area*tol+1e-12 || sPeak > peak*tol+1e-12 || sRun > run*tol+1e-12 ||
			sSub > sub*tol+1e-12 || sGate > gate*tol+1e-12 || sSaved > saved*tol+1e-12 {
			sums := [6]float64{sArea, sPeak, sRun, sSub, sGate, sSaved}
			for i, x := range s.Values(r) {
				// A non-finite quantity was flagged above.
				if sum := sums[i]; sum > x*tol+1e-12 && isFinite(sum) && isFinite(x) {
					ds.add(s, r, fieldNames[i], x,
						fmt.Sprintf("children sum to %.6g, exceeding the parent total", sum))
				}
			}
		}
	}

	// Root-level runtime-vs-TDP bound; only meaningful when runtime
	// statistics were applied.
	if s.RuntimeDynamic(0) > 0 {
		peak := s.Peak(0)
		if run := s.Runtime(0); peak > 0 && run > o.RuntimeTDPMult*peak {
			ds = append(ds, Diagnostic{
				Path: s.Name(0), Field: "Runtime", Value: run,
				Msg: fmt.Sprintf("runtime power %.3g W exceeds %g x TDP (%.3g W)",
					run, o.RuntimeTDPMult, peak),
			})
		}
	}
	return ds
}

// nonNegative reports whether x is finite and not below zero.
func nonNegative(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

// fieldNames names the checked quantities of a node, in Score.Values
// order.
var fieldNames = [6]string{"Area", "PeakDynamic", "RuntimeDynamic", "SubLeak", "GateLeak", "LeakSaved"}

// add appends one diagnostic at row r, whose path is the names of the
// rows from the root down to it, joined with dots.
func (ds *Diagnostics) add(s power.Score, r int, field string, v float64, msg string) {
	names := []string{s.Name(0)}
	for a := 0; a != r; {
		// Descend into the child of a whose subtree holds r.
		c := a + 1
		for s.End(c) <= r {
			c = s.End(c)
		}
		a = c
		names = append(names, s.Name(a))
	}
	*ds = append(*ds, Diagnostic{Path: strings.Join(names, "."), Field: field, Value: v, Msg: msg})
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
