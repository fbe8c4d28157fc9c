package array

import "sync/atomic"

// optOrgsEvaluated counts the organizations the optimizer evaluated. It
// only moves on real (uncached) syntheses - a memoized result re-runs
// nothing - so its delta over a sweep measures actual cold-path effort.
var optOrgsEvaluated atomic.Uint64

// OptimizerStats is a snapshot of the optimizer's enumeration counter.
type OptimizerStats struct {
	// Evaluated counts organizations that paid the circuit evaluation.
	Evaluated uint64
}

// OptStats returns the current process-wide optimizer counter.
func OptStats() OptimizerStats {
	return OptimizerStats{Evaluated: optOrgsEvaluated.Load()}
}

// Delta returns the counter movement since a previous snapshot,
// attributing enumeration work to one sweep or serving window.
func (s OptimizerStats) Delta(prev OptimizerStats) OptimizerStats {
	return OptimizerStats{Evaluated: s.Evaluated - prev.Evaluated}
}

// PruneRate is 0; the optimizer evaluates every organization.
//
// Deprecated: the optimizer has no lower-bound screen to report.
func (s OptimizerStats) PruneRate() float64 { return 0 }
