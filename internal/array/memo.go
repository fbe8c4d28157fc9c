package array

import "mcpat/internal/memo"

// Memoized synthesis.
//
// The internal optimizer enumerates every (rows, column-mux, sub-word)
// organization of a structure per solve, and chip-level sweeps re-solve
// byte-identical structures hundreds of times (every DSE candidate
// rebuilds the same L1s, TLBs, ROBs, MSHRs...). The package keeps one
// process-wide table of internal/memo keyed by the canonical Key: a
// repeated solve returns a copy of the cached Result, and concurrent
// solves of the same structure share one in-flight computation instead
// of racing N copies. internal/memo documents the shared properties
// (errors never cached, panics unwind, retunes invalidate naturally);
// this tier adds that hits are copies, so callers may mutate freely.

// memoStripes bounds lock contention between parallel DSE workers; 32 is
// comfortably above any sane GOMAXPROCS share for this workload.
const memoStripes = 32

// results is the array tier: one counter set, and every Result it hands
// out is a private copy.
var results = memo.NewTable[Key, *Result](memoStripes, 1, (*Result).clone)

// CacheStats is a snapshot of the synthesis-cache counters.
type CacheStats struct {
	memo.Stats
	// Entries is the number of resident cached results (a gauge, not a
	// counter; Delta keeps the newer snapshot's value).
	Entries int
}

// Delta returns the counter difference s - prev, for reporting one
// sweep's cache behavior. Entries is carried from s unchanged.
func (s CacheStats) Delta(prev CacheStats) CacheStats {
	return CacheStats{Stats: s.Stats.Delta(prev.Stats), Entries: s.Entries}
}

// Stats returns the current global cache counters.
func Stats() CacheStats {
	return CacheStats{Stats: results.Stats(0), Entries: results.Len()}
}

// ResetCache drops every cached result and zeroes the counters.
func ResetCache() { results.Reset() }

// SetCacheEnabled turns result caching on or off (it is on by default)
// and returns the previous setting. It switches only this tier, not the
// subsystem tier above it. Disabling does not drop resident entries;
// combine with ResetCache for a cold, cache-free run.
func SetCacheEnabled(enabled bool) bool { return results.SetEnabled(enabled) }

// clone returns a copy of the result safe to hand to a caller that may
// mutate it. Tag is the only pointer field, and tag arrays never nest.
func (r *Result) clone() *Result {
	cp := *r
	if r.Tag != nil {
		tag := *r.Tag
		cp.Tag = &tag
	}
	return &cp
}
