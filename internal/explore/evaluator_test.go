package explore

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mcpat/internal/chip"
)

// TestTimedOutEvaluatorIsReplaced stalls one candidate past its deadline
// and past the end of the sweep. The worker must abandon that evaluator
// and carry on with a fresh one: every other candidate matches a serial
// sweep without deadlines, and once the stall is released the abandoned
// evaluator exits, so no goroutine outlives the sweep.
func TestTimedOutEvaluatorIsReplaced(t *testing.T) {
	space := Space{
		Cores:        []int{8, 16, 32},
		L2PerCoreKB:  []int{128},
		Fabrics:      []chip.InterconnectKind{chip.Mesh, chip.Ring},
		ClusterSizes: []int{1, 2},
	}
	ref, err := SearchContext(context.Background(), quickParams(), space, Constraints{}, MaxThroughput,
		&Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Evaluated < 8 || len(ref.Failures) != 0 {
		t.Fatalf("reference sweep: evaluated %d, failures %v; want >= 8 and none", ref.Evaluated, ref.Failures)
	}
	stalled := func(c *Candidate) bool { return c.Cores == 16 && c.Fabric == chip.Mesh && c.ClusterSize == 2 }
	var want []Candidate
	for _, c := range ref.Candidates {
		if !stalled(&c) {
			want = append(want, c)
		}
	}

	release := make(chan struct{})
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()
	withEvalHook(t, func(c *Candidate) {
		if stalled(c) {
			<-release
		}
	})
	before := runtime.NumGoroutine()
	res, err := SearchContext(context.Background(), quickParams(), space, Constraints{}, MaxThroughput,
		&Options{Workers: 2, CandidateTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("a timed-out candidate must not abort the sweep: %v", err)
	}
	if len(res.Failures) != 1 || !stalled(&res.Failures[0].Candidate) {
		t.Fatalf("want exactly the stalled candidate to fail, got %v", res.Failures)
	}
	if !errors.Is(res.Failures[0].Err, context.DeadlineExceeded) {
		t.Errorf("the stall must fail as DeadlineExceeded, got %v", res.Failures[0].Err)
	}
	if !reflect.DeepEqual(res.Candidates, want) {
		t.Errorf("the other candidates differ from the serial sweep:\n got  %+v\n want %+v", res.Candidates, want)
	}

	close(release)
	released = true
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines 5 s after the stall was released, %d before the sweep:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWarmCandidateAllocBudget bounds the heap cost of a warm candidate.
// With every synthesis memo warm, a candidate compiles its chip's report
// once and scores it into its evaluator's slab, building no tree, the
// output check joins no paths, and only a failed candidate formats its
// name; what is left is chip assembly, perfsim and the sweep's own
// bookkeeping.
func TestWarmCandidateAllocBudget(t *testing.T) {
	const budget = 40
	p := Params{NM: 22, ClockHz: 2.5e9, Threads: 4, MemBW: 200e9} // the three default workloads
	space := Space{
		Cores:        []int{8, 16, 32, 64},
		L2PerCoreKB:  []int{128, 256, 512},
		Fabrics:      []chip.InterconnectKind{chip.Mesh, chip.Ring, chip.Bus, chip.Crossbar},
		ClusterSizes: []int{1, 2, 4},
	}
	cons := Constraints{MaxAreaMM2: 250, MaxTDP: 120}
	var res *Result
	sweep := func() {
		var err error
		res, err = SearchContext(context.Background(), p, space, cons, MaxThroughput, &Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
	}
	sweep() // warms both synthesis memos
	per := testing.AllocsPerRun(3, sweep) / float64(res.Evaluated)
	t.Logf("warm serial sweep: %.1f allocations per candidate over %d candidates (%d feasible)",
		per, res.Evaluated, res.Feasible)
	if len(res.Failures) != 0 || res.Feasible == 0 {
		t.Fatalf("sweep must evaluate cleanly with feasible points: %d failures, %d feasible",
			len(res.Failures), res.Feasible)
	}
	if per > budget {
		t.Errorf("a warm candidate costs %.1f allocations, budget %d", per, budget)
	}
}
