package serve

import (
	"context"
	"net/http"
	"testing"
	"time"

	"mcpat/internal/explore"
)

// TestJobFrontObservableWhileRunning pins the front-streaming contract:
// a running pareto job exposes its current Pareto front through
// GET /v1/jobs/{id}, and a cancel keeps the partial front in the
// terminal status. The sweep is stubbed so the test scripts exactly one
// front update and then blocks mid-search.
func TestJobFrontObservableWhileRunning(t *testing.T) {
	s, ts := newTestServer(t, Config{JobWorkers: 1})
	started := make(chan string, 1)
	partial := []explore.Candidate{
		{Cores: 4, L2PerCoreKB: 64, ClusterSize: 1, RunW: 9, AreaMM2: 7, Perf: 1e10, Feasible: true, Score: 1e10},
		{Cores: 16, L2PerCoreKB: 64, ClusterSize: 1, RunW: 40, AreaMM2: 30, Perf: 4e10, Feasible: true, Score: 4e10},
	}
	s.jobs.runSweep = func(ctx context.Context, j *job) (*explore.Result, error) {
		// The engine streams front improvements between generations; the
		// stub plays one update, then stalls like a long mid-search batch.
		j.opts.OnFrontUpdate(partial, 8)
		started <- j.status.ID
		<-ctx.Done()
		return &explore.Result{
			Evaluated: 8, Feasible: 2,
			Front:  partial,
			Search: explore.SearchPareto,
		}, ctx.Err()
	}

	resp, body := doJSON(t, "POST", ts.URL+"/v1/dse", DSERequest{
		Sweep: explore.Sweep{Cores: []int{4, 16}}, Search: "pareto", Budget: 24, Seed: 1,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	id := decode[JobStatus](t, body).ID
	<-started

	resp, body = doJSON(t, "GET", ts.URL+"/v1/jobs/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: %d %s", resp.StatusCode, body)
	}
	st := decode[JobStatus](t, body)
	if st.State != JobRunning {
		t.Fatalf("job should be mid-sweep, got %v", st.State)
	}
	if len(st.Front) != len(partial) {
		t.Fatalf("running job must expose the streamed front, got %+v", st.Front)
	}
	if st.Front[0].Cores != 4 || st.Front[1].Cores != 16 {
		t.Errorf("front members wrong: %+v", st.Front)
	}
	if !st.Front[0].Feasible || st.Front[0].GIPS != 10 {
		t.Errorf("front member wire fields wrong: %+v", st.Front[0])
	}

	resp, body = doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+id, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %d %s", resp.StatusCode, body)
	}
	final := pollJob(t, ts.URL, id, 10*time.Second)
	if final.State != JobCanceled {
		t.Fatalf("want canceled, got %+v", final.State)
	}
	if len(final.Front) != len(partial) {
		t.Errorf("cancel must keep the partial front in the status, got %+v", final.Front)
	}
	if final.Result == nil || len(final.Result.Front) != len(partial) {
		t.Errorf("partial result must carry the front, got %+v", final.Result)
	}
	if final.Result != nil && final.Result.Search != "pareto" {
		t.Errorf("result must name the pareto strategy, got %q", final.Result.Search)
	}
}

// TestJobParetoEndToEnd runs a real (small) pareto sweep through the
// service and checks the terminal report: strategy, space accounting,
// and a non-empty front of feasible members.
func TestJobParetoEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 1})
	resp, body := doJSON(t, "POST", ts.URL+"/v1/dse", DSERequest{
		Sweep: explore.Sweep{
			Cores:       []int{2, 4, 8, 16, 32},
			L2PerCoreKB: []int{64, 256, 1024},
			Fabrics:     []string{"ring"},
		},
		Search: "pareto",
		Budget: 10,
		Seed:   3,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	id := decode[JobStatus](t, body).ID
	final := pollJob(t, ts.URL, id, 30*time.Second)
	if final.State != JobDone {
		t.Fatalf("want done, got %+v", final)
	}
	rep := final.Result
	if rep == nil {
		t.Fatal("done job must carry a report")
	}
	if rep.Search != "pareto" || rep.SpaceSize != 15 {
		t.Fatalf("report accounting wrong: search=%q space=%d", rep.Search, rep.SpaceSize)
	}
	if rep.Evaluated > 10 {
		t.Errorf("budget 10 exceeded: %d evaluations", rep.Evaluated)
	}
	if len(rep.Front) == 0 {
		t.Fatal("pareto report must include the front")
	}
	for _, c := range rep.Front {
		if !c.Feasible {
			t.Errorf("front member must be feasible: %+v", c)
		}
	}
	// The terminal status mirrors the final streamed front.
	if len(final.Front) != len(rep.Front) {
		t.Errorf("status front (%d) and report front (%d) disagree", len(final.Front), len(rep.Front))
	}
}

// TestDSERequestRejectsUnknownSearch pins request validation for the
// new field.
func TestDSERequestRejectsUnknownSearch(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 1})
	resp, body := doJSON(t, "POST", ts.URL+"/v1/dse", DSERequest{
		Sweep: explore.Sweep{Cores: []int{2}}, Search: "annealing",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown search must 400, got %d %s", resp.StatusCode, body)
	}
}
