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
// stopping at the first, so a caller can log the full picture. A clean
// tree is checked without allocating: node paths are joined only for a
// diagnostic.
func CheckReport(rep *power.Item, opts *CheckOptions) Diagnostics {
	if rep == nil {
		return Diagnostics{{Path: "", Field: "report", Msg: "nil report"}}
	}
	o := opts.defaults()
	var ds Diagnostics
	var names [pathDepth]string
	checkItem(rep, append(names[:0], rep.Name), o, &ds)

	// Root-level runtime-vs-TDP bound; only meaningful when runtime
	// statistics were applied.
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

// pathDepth is the node-name stack CheckReport keeps on its own frame;
// a deeper tree spills the stack to the heap.
const pathDepth = 16

// fieldNames names the checked quantities of a node, in fieldsOf order.
var fieldNames = [6]string{"Area", "PeakDynamic", "RuntimeDynamic", "SubLeak", "GateLeak", "LeakSaved"}

// fieldsOf returns the checked quantities of one node.
func fieldsOf(it *power.Item) [6]float64 {
	return [6]float64{it.Area, it.PeakDynamic, it.RuntimeDynamic, it.SubLeak, it.GateLeak, it.LeakSaved}
}

// checkItem checks one node and its subtree. path holds the names from
// the root down to it; a diagnostic joins them with dots.
func checkItem(it *power.Item, path []string, o CheckOptions, ds *Diagnostics) {
	vals := fieldsOf(it)
	for i, v := range vals {
		switch {
		case math.IsNaN(v):
			ds.add(path, fieldNames[i], v, "NaN")
		case math.IsInf(v, 0):
			ds.add(path, fieldNames[i], v, "infinite")
		case v < 0:
			ds.add(path, fieldNames[i], v, "negative")
		}
	}
	if it.LeakSaved > 0 {
		if leak := it.SubLeak + it.GateLeak; it.LeakSaved > leak*(1+o.SumTolerance) {
			ds.add(path, "LeakSaved", it.LeakSaved,
				fmt.Sprintf("power-gating savings exceed total leakage %.3g W", leak))
		}
	}
	if len(it.Children) > 0 {
		var sums [6]float64
		for _, c := range it.Children {
			for i, v := range fieldsOf(c) {
				sums[i] += v
			}
		}
		for i, v := range vals {
			sum := sums[i]
			if !isFinite(sum) || !isFinite(v) {
				continue // the per-node checks above already flagged these
			}
			// Absolute slack keeps near-zero quantities from tripping on
			// float rounding.
			if sum > v*(1+o.SumTolerance)+1e-12 {
				ds.add(path, fieldNames[i], v,
					fmt.Sprintf("children sum to %.6g, exceeding the parent total", sum))
			}
		}
	}
	for _, c := range it.Children {
		checkItem(c, append(path, c.Name), o, ds)
	}
}

// add appends one diagnostic at the node the name stack path leads to.
func (ds *Diagnostics) add(path []string, field string, v float64, msg string) {
	*ds = append(*ds, Diagnostic{Path: strings.Join(path, "."), Field: field, Value: v, Msg: msg})
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
