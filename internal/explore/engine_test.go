package explore

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mcpat/internal/chip"
	"mcpat/internal/component"
	"mcpat/internal/guard"
)

// withEvalHook installs a per-candidate evaluation hook for the duration
// of one test. The engine evaluates concurrently, so hooks must be
// goroutine-safe.
func withEvalHook(t *testing.T, hook func(c *Candidate)) {
	t.Helper()
	testEvalHook.Store(&hook)
	t.Cleanup(func() { testEvalHook.Store(nil) })
}

func singlePoint() Space {
	return Space{
		Cores:        []int{16},
		L2PerCoreKB:  []int{256},
		Fabrics:      []chip.InterconnectKind{chip.Mesh},
		ClusterSizes: []int{1},
	}
}

func TestSearchContextMatchesSearch(t *testing.T) {
	space := Space{
		Cores:        []int{16, 32},
		Fabrics:      []chip.InterconnectKind{chip.Mesh},
		ClusterSizes: []int{1, 4},
	}
	cons := Constraints{MaxAreaMM2: 400, MaxTDP: 250}
	seq, err := SearchContext(context.Background(), quickParams(), space, cons, MaxThroughput,
		&Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := SearchContext(context.Background(), quickParams(), space, cons, MaxThroughput,
		&Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Candidates, par.Candidates) {
		t.Error("result ordering must be deterministic across worker counts")
	}
	if seq.Evaluated != par.Evaluated || seq.Feasible != par.Feasible {
		t.Errorf("counts differ: seq %d/%d, par %d/%d",
			seq.Feasible, seq.Evaluated, par.Feasible, par.Evaluated)
	}
}

func TestSinglePointSpace(t *testing.T) {
	res, err := SearchContext(context.Background(), quickParams(), singlePoint(),
		Constraints{}, MaxThroughput, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 1 || res.Feasible != 1 || res.Best == nil {
		t.Fatalf("single-point space: evaluated=%d feasible=%d best=%v",
			res.Evaluated, res.Feasible, res.Best)
	}
}

func TestEmptyFeasibleSet(t *testing.T) {
	// Every candidate violates the (absurd) budget: the sweep must still
	// complete, rank nothing, and report every rejection reason.
	res, err := SearchContext(context.Background(), quickParams(), Space{
		Cores:        []int{16, 32},
		Fabrics:      []chip.InterconnectKind{chip.Mesh},
		ClusterSizes: []int{1},
	}, Constraints{MaxTDP: 0.001}, MaxThroughput, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != nil || res.Feasible != 0 {
		t.Fatalf("nothing can fit 1 mW: feasible=%d best=%v", res.Feasible, res.Best)
	}
	if len(res.Candidates) != 2 {
		t.Fatalf("all candidates must still be reported, got %d", len(res.Candidates))
	}
	for _, c := range res.Candidates {
		if c.Reject == "" {
			t.Error("infeasible candidate must carry a rejection reason")
		}
	}
	if len(res.Failures) != 0 {
		t.Errorf("budget rejections are not failures: %v", res.Failures)
	}
}

func TestAllCandidatesInfeasibleCombination(t *testing.T) {
	// Cluster size 7 divides neither core count: every point is malformed.
	res, err := SearchContext(context.Background(), quickParams(), Space{
		Cores:        []int{16, 32},
		Fabrics:      []chip.InterconnectKind{chip.Mesh},
		ClusterSizes: []int{7},
	}, Constraints{}, MaxThroughput, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible != 0 || res.Best != nil || res.Evaluated != 2 {
		t.Fatalf("want 2 evaluated, 0 feasible: %+v", res)
	}
}

func TestPoisonedCandidateDoesNotAbortSweep(t *testing.T) {
	withEvalHook(t, func(c *Candidate) {
		if c.Cores == 32 {
			panic("poisoned candidate: simulated model fault")
		}
	})
	res, err := SearchContext(context.Background(), quickParams(), Space{
		Cores:        []int{16, 32, 64},
		Fabrics:      []chip.InterconnectKind{chip.Mesh},
		ClusterSizes: []int{1},
	}, Constraints{MaxAreaMM2: 400, MaxTDP: 250}, MaxThroughput, &Options{Workers: 2})
	if err != nil {
		t.Fatalf("a poisoned candidate must not abort the sweep: %v", err)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("want exactly 1 failure, got %v", res.Failures)
	}
	f := res.Failures[0]
	if f.Candidate.Cores != 32 {
		t.Errorf("failure attributed to wrong candidate: %+v", f.Candidate)
	}
	if !errors.Is(f.Err, guard.ErrInternal) {
		t.Errorf("recovered panic must classify as ErrInternal, got %v", f.Err)
	}
	if !strings.Contains(f.Err.Error(), "poisoned candidate") {
		t.Errorf("failure must preserve the panic value: %v", f.Err)
	}
	// The survivors are still evaluated and ranked.
	if res.Evaluated != 3 || len(res.Candidates) != 2 {
		t.Errorf("evaluated=%d candidates=%d, want 3 and 2", res.Evaluated, len(res.Candidates))
	}
	if res.Best == nil {
		t.Error("surviving feasible candidates must still produce a Best")
	}
	for _, c := range res.Candidates {
		if c.Cores == 32 {
			t.Error("failed candidate must not appear in ranked results")
		}
	}
}

func TestFailFastAbortsOnFirstFailure(t *testing.T) {
	withEvalHook(t, func(c *Candidate) {
		panic("always poisoned")
	})
	res, err := SearchContext(context.Background(), quickParams(), Space{
		Cores:        []int{16, 32, 64},
		Fabrics:      []chip.InterconnectKind{chip.Mesh},
		ClusterSizes: []int{1},
	}, Constraints{}, MaxThroughput, &Options{Workers: 1, FailFast: true})
	if err == nil {
		t.Fatal("FailFast must surface the first failure as an error")
	}
	if !errors.Is(err, guard.ErrInternal) {
		t.Errorf("want ErrInternal, got %v", err)
	}
	if res == nil || len(res.Failures) == 0 {
		t.Error("partial result with the failure report must still be returned")
	}
}

func TestCancellationMidSweepReturnsPromptly(t *testing.T) {
	started := make(chan struct{}, 64)
	release := make(chan struct{})
	withEvalHook(t, func(c *Candidate) {
		started <- struct{}{}
		<-release // stall until the test releases the evaluations
	})
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	var res *Result
	var err error
	go func() {
		res, err = SearchContext(ctx, quickParams(), Space{
			Cores:        []int{8, 16, 32, 64},
			Fabrics:      []chip.InterconnectKind{chip.Mesh},
			ClusterSizes: []int{1, 2},
		}, Constraints{}, MaxThroughput, &Options{Workers: 2})
		close(done)
	}()

	<-started // at least one evaluation is in flight
	cancel()

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled sweep did not return promptly")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res == nil {
		t.Fatal("partial result must accompany the cancellation error")
	}
	if res.Evaluated >= 8 {
		t.Errorf("cancellation should have stopped the sweep early, evaluated %d", res.Evaluated)
	}
}

func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SearchContext(ctx, quickParams(), singlePoint(), Constraints{}, MaxThroughput, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res == nil || res.Evaluated != 0 {
		t.Fatalf("pre-cancelled sweep must evaluate nothing: %+v", res)
	}
}

func TestCandidateTimeout(t *testing.T) {
	var stalls atomic.Int32
	release := make(chan struct{})
	defer close(release)
	withEvalHook(t, func(c *Candidate) {
		if c.Cores == 32 {
			stalls.Add(1)
			<-release // hang far beyond the deadline
		}
	})
	res, err := SearchContext(context.Background(), quickParams(), Space{
		Cores:        []int{16, 32},
		Fabrics:      []chip.InterconnectKind{chip.Mesh},
		ClusterSizes: []int{1},
	}, Constraints{}, MaxThroughput, &Options{Workers: 2, CandidateTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("a timed-out candidate must not abort the sweep: %v", err)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("want 1 timeout failure, got %v", res.Failures)
	}
	if !errors.Is(res.Failures[0].Err, context.DeadlineExceeded) {
		t.Errorf("timeout must classify as DeadlineExceeded, got %v", res.Failures[0].Err)
	}
	if stalls.Load() != 1 {
		t.Errorf("hook stalled %d times, want 1", stalls.Load())
	}
	if res.Best == nil || res.Best.Cores != 16 {
		t.Error("the surviving candidate must still be ranked")
	}
}

func TestFailureStringAndDeterministicFailureOrder(t *testing.T) {
	withEvalHook(t, func(c *Candidate) {
		if c.Cores == 16 || c.Cores == 64 {
			panic("boom")
		}
	})
	res, err := SearchContext(context.Background(), quickParams(), Space{
		Cores:        []int{16, 32, 64},
		Fabrics:      []chip.InterconnectKind{chip.Mesh},
		ClusterSizes: []int{1},
	}, Constraints{}, MaxThroughput, &Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 2 ||
		res.Failures[0].Candidate.Cores != 16 || res.Failures[1].Candidate.Cores != 64 {
		t.Fatalf("failures must follow enumeration order: %v", res.Failures)
	}
	if s := res.Failures[0].String(); !strings.Contains(s, "16c") {
		t.Errorf("Failure.String should identify the design point: %q", s)
	}
}

// TestCountersSurviveCacheReset repeats a warm sweep whose progress
// callback resets the subsystem cache after the last candidate, so the
// sweep's counter deltas span the reset. No delta may exceed the totals
// the cache holds after the sweep; a wrapped difference reads ~1.8e19.
func TestCountersSurviveCacheReset(t *testing.T) {
	space := Space{Cores: []int{2, 4}, L2PerCoreKB: []int{64}}
	if _, err := SearchContext(context.Background(), quickParams(), space, Constraints{}, MaxThroughput, nil); err != nil {
		t.Fatal(err)
	}
	opts := &Options{OnProgress: func(done, total int) {
		if done == total {
			component.ResetCache()
		}
	}}
	res, err := SearchContext(context.Background(), quickParams(), space, Constraints{}, MaxThroughput, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, after := res.Subsys.Total(), component.Stats().Total()
	if got.Hits > after.Hits || got.Misses > after.Misses || got.Shared > after.Shared || got.Bypassed > after.Bypassed {
		t.Errorf("sweep delta %+v exceeds the totals read after the sweep %+v", got, after)
	}
}
