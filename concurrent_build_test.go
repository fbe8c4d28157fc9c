package mcpat_test

// Whole-chip builds from several goroutines at once, the way sweeps,
// shards and concurrent requests run them, with both synthesis caches
// disabled so every build takes the cold path: each must produce the
// report a lone uncached build produces, bit for bit. Run under -race
// in CI to prove the builders share no hidden state.

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"mcpat"
)

// TestConcurrentColdBuildsBitIdentical overlaps whole-chip builds from
// several goroutines with caches bypassed, so nothing is shared but the
// model code itself.
func TestConcurrentColdBuildsBitIdentical(t *testing.T) {
	ref := uncachedReports(t)

	prevArr := mcpat.SetArraySynthCache(false)
	prevSub := mcpat.SetSubsysSynthCache(false)
	defer func() {
		mcpat.SetArraySynthCache(prevArr)
		mcpat.SetSubsysSynthCache(prevSub)
	}()

	const builders = 4
	var wg sync.WaitGroup
	errs := make(chan string, builders)
	for w := 0; w < builders; w++ {
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
					errs <- target.Ref.Name + ": concurrent cold report differs from the uncached reference"
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

// TestSubsystemErrorAttribution pins that a subsystem failure names the
// subsystem: the registry walk stops at the failing builder, whose
// error carries its path.
func TestSubsystemErrorAttribution(t *testing.T) {
	cfg := mcpat.ValidationTargets()[0].Chip
	l2 := *cfg.L2
	l2.Bytes = -1 // capacity is required; this fails inside the L2 builder
	cfg.L2 = &l2

	_, err := mcpat.New(cfg)
	if err == nil {
		t.Fatal("poisoned L2 config did not fail")
	}
	if !strings.Contains(err.Error(), "l2") && !strings.Contains(err.Error(), "L2") {
		t.Errorf("error lost subsystem attribution: %v", err)
	}
}
