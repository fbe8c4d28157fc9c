package mcpat_test

// Bit-identity contract for the synthesis caches at the whole-chip
// level: for every validation target, the full power/area report tree
// produced with a cache enabled (both the filling pass and the all-hits
// pass) must be byte-for-byte equal to the tree produced with all
// caching disabled. This file isolates the array-level cache (the
// subsystem cache above it is switched off so chip builds actually reach
// array.New); subsys_equivalence_test.go covers the subsystem layer.
// The concurrent variant rebuilds all targets from parallel goroutines —
// the explore-engine access pattern — and is the -race proof that shared
// single-flight solves do not leak state between evaluations.

import (
	"reflect"
	"sync"
	"testing"

	"mcpat"
)

// uncachedReports builds every validation target with both synthesis
// cache layers disabled — the ground-truth reference reports.
func uncachedReports(t *testing.T) map[string]*mcpat.Report {
	t.Helper()
	prevArr := mcpat.SetArraySynthCache(false)
	prevSub := mcpat.SetSubsysSynthCache(false)
	defer func() {
		mcpat.SetArraySynthCache(prevArr)
		mcpat.SetSubsysSynthCache(prevSub)
	}()
	ref := make(map[string]*mcpat.Report)
	for _, target := range mcpat.ValidationTargets() {
		res, err := mcpat.Validate(target)
		if err != nil {
			t.Fatalf("%s uncached: %v", target.Ref.Name, err)
		}
		ref[target.Ref.Name] = res.Report
	}
	return ref
}

func TestCachedReportsBitIdentical(t *testing.T) {
	ref := uncachedReports(t)
	prevSub := mcpat.SetSubsysSynthCache(false)
	defer mcpat.SetSubsysSynthCache(prevSub)
	mcpat.ResetArraySynthCache()

	for pass, label := range []string{"cold (cache-filling)", "warm (all hits)"} {
		for _, target := range mcpat.ValidationTargets() {
			res, err := mcpat.Validate(target)
			if err != nil {
				t.Fatalf("%s pass %d: %v", target.Ref.Name, pass, err)
			}
			if !reflect.DeepEqual(res.Report, ref[target.Ref.Name]) {
				t.Errorf("%s: %s cached report differs from uncached reference",
					target.Ref.Name, label)
			}
		}
	}
	if cs := mcpat.ReadEngineCounters().Cache; cs.Hits == 0 {
		t.Error("warm pass produced no cache hits; cache not exercised")
	}
}

func TestCachedReportsBitIdenticalConcurrent(t *testing.T) {
	ref := uncachedReports(t)
	prevSub := mcpat.SetSubsysSynthCache(false)
	defer mcpat.SetSubsysSynthCache(prevSub)
	mcpat.ResetArraySynthCache()

	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, target := range mcpat.ValidationTargets() {
				res, err := mcpat.Validate(target)
				if err != nil {
					errs <- target.Ref.Name + ": " + err.Error()
					return
				}
				if !reflect.DeepEqual(res.Report, ref[target.Ref.Name]) {
					errs <- target.Ref.Name + ": concurrent cached report differs from uncached reference"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}
