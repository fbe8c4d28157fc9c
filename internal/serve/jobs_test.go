package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mcpat/internal/array"
	"mcpat/internal/chip"
	"mcpat/internal/component"
	"mcpat/internal/explore"
	"mcpat/internal/guard"
)

// stubSweep replaces the job store's sweep runner with a script: it
// signals when a sweep starts and blocks until released or canceled,
// returning a partial result with the context error - exactly the
// engine's cancellation contract.
type stubSweep struct {
	started     chan string   // receives the job id as each sweep starts
	release     chan struct{} // releaseAll lets sweeps finish cleanly
	releaseOnce sync.Once
}

func (s *stubSweep) releaseAll() { s.releaseOnce.Do(func() { close(s.release) }) }

func installStubSweep(t *testing.T, s *Server) *stubSweep {
	t.Helper()
	st := &stubSweep{started: make(chan string, 16), release: make(chan struct{})}
	s.jobs.runSweep = func(ctx context.Context, j *job) (*explore.Result, error) {
		st.started <- j.status.ID
		select {
		case <-st.release:
			return &explore.Result{Evaluated: 1, Feasible: 1}, nil
		case <-ctx.Done():
			return &explore.Result{Evaluated: 1}, ctx.Err()
		}
	}
	return st
}

// TestJobCancelViaDelete submits a stalled sweep, cancels it over HTTP,
// and checks it reaches the canceled state with its partial result.
func TestJobCancelViaDelete(t *testing.T) {
	s, ts := newTestServer(t, Config{JobWorkers: 1})
	stub := installStubSweep(t, s)
	defer stub.releaseAll()

	resp, body := doJSON(t, "POST", ts.URL+"/v1/dse", DSERequest{Sweep: explore.Sweep{Cores: []int{2}}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	id := decode[JobStatus](t, body).ID
	<-stub.started // the sweep is running and blocked

	resp, body = doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+id, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %d %s", resp.StatusCode, body)
	}

	final := pollJob(t, ts.URL, id, 10*time.Second)
	if final.State != JobCanceled {
		t.Fatalf("want canceled, got %+v", final)
	}
	if final.Error == nil || final.Error.Kind != guard.KindCanceled {
		t.Errorf("canceled job must carry a canceled error: %+v", final.Error)
	}
	if final.Result == nil || final.Result.Evaluated != 1 {
		t.Errorf("partial result must survive cancellation: %+v", final.Result)
	}
}

// TestJobCancelWhileQueued cancels a job before any worker picks it up.
func TestJobCancelWhileQueued(t *testing.T) {
	s, ts := newTestServer(t, Config{JobWorkers: 1, JobQueueDepth: 4})
	stub := installStubSweep(t, s)
	defer stub.releaseAll()

	// First job occupies the only worker.
	_, body := doJSON(t, "POST", ts.URL+"/v1/dse", DSERequest{Sweep: explore.Sweep{Cores: []int{2}}})
	blocked := decode[JobStatus](t, body).ID
	<-stub.started

	// Second job sits in the queue.
	_, body = doJSON(t, "POST", ts.URL+"/v1/dse", DSERequest{Sweep: explore.Sweep{Cores: []int{4}}})
	queued := decode[JobStatus](t, body).ID

	resp, body := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+queued, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel queued: %d %s", resp.StatusCode, body)
	}
	st := decode[JobStatus](t, body)
	if st.State != JobCanceled {
		t.Fatalf("a queued job cancels immediately, got %+v", st)
	}

	// The canceled job must never start; release the worker and make
	// sure only the first job ran.
	stub.releaseAll()
	if final := pollJob(t, ts.URL, blocked, 10*time.Second); final.State != JobDone {
		t.Fatalf("blocked job should finish after release: %+v", final)
	}
	select {
	case id := <-stub.started:
		t.Fatalf("canceled queued job %s must not start", id)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestJobQueueSaturation fills the worker and the queue, then checks
// the next submission is shed with 429 + Retry-After.
func TestJobQueueSaturation(t *testing.T) {
	s, ts := newTestServer(t, Config{JobWorkers: 1, JobQueueDepth: 1})
	stub := installStubSweep(t, s)
	defer stub.releaseAll()

	_, body := doJSON(t, "POST", ts.URL+"/v1/dse", DSERequest{Sweep: explore.Sweep{Cores: []int{2}}})
	running := decode[JobStatus](t, body).ID
	<-stub.started // worker busy

	resp, _ := doJSON(t, "POST", ts.URL+"/v1/dse", DSERequest{Sweep: explore.Sweep{Cores: []int{4}}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queue slot should admit the second job: %d", resp.StatusCode)
	}

	resp, body = doJSON(t, "POST", ts.URL+"/v1/dse", DSERequest{Sweep: explore.Sweep{Cores: []int{8}}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue must shed with 429, got %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 must carry Retry-After")
	}
	if decode[ErrorBody](t, body).Error.Kind != kindOverloaded {
		t.Errorf("want kind overloaded: %s", body)
	}
	// A shed job must not be pollable.
	if resp, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/"+running, nil); resp.StatusCode != 200 {
		t.Errorf("admitted job must remain pollable: %d", resp.StatusCode)
	}
}

// TestGracefulDrain starts a long request, begins shutdown, and checks
// that (a) new requests are refused, (b) the in-flight request still
// completes successfully, and (c) running jobs are canceled.
func TestGracefulDrain(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	withServeEvalHook(t, func(cfg *chip.Config) error {
		entered <- struct{}{}
		<-release
		return nil
	})

	s := New(Config{MaxInFlight: 2, JobWorkers: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	stub := installStubSweep(t, s)
	defer stub.releaseAll()

	// A job is running...
	_, body := doJSON(t, "POST", ts.URL+"/v1/dse", DSERequest{Sweep: explore.Sweep{Cores: []int{2}}})
	jobID := decode[JobStatus](t, body).ID
	<-stub.started

	// ...and an evaluation is in flight.
	type result struct {
		status int
		body   []byte
	}
	inflight := make(chan result, 1)
	go func() {
		cfg := tinyChip()
		resp, body := doJSON(t, "POST", ts.URL+"/v1/evaluate", EvaluateRequest{Config: &cfg})
		inflight <- result{resp.StatusCode, body}
	}()
	<-entered

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// Draining: new work is refused, health reports unready.
	waitFor(t, 5*time.Second, s.Draining)
	cfg := tinyChip()
	resp, body := doJSON(t, "POST", ts.URL+"/v1/evaluate", EvaluateRequest{Config: &cfg})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server must refuse new work with 503, got %d: %s", resp.StatusCode, body)
	}
	if decode[ErrorBody](t, body).Error.Kind != kindDraining {
		t.Errorf("want kind draining: %s", body)
	}
	if resp, _ := doJSON(t, "GET", ts.URL+"/healthz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz must report draining with 503, got %d", resp.StatusCode)
	}

	// The in-flight request completes once the models return.
	close(release)
	r := <-inflight
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request must flush during drain: %d %s", r.status, r.body)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}

	// The running job was canceled by the drain, its partial state kept.
	st, ok := s.jobs.get(jobID)
	if !ok || st.State != JobCanceled {
		t.Fatalf("drain must cancel running jobs: %+v", st)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMetricsAcrossRequests scripts a request sequence and checks the
// counters move accordingly.
func TestMetricsAcrossRequests(t *testing.T) {
	// The sweep must reach the array tier for its counters to move, so
	// start from cold memos: after any earlier synthesis of the same
	// configs (a repeat run, another test first in a shuffled order) the
	// subsystem tier would serve the sweep on its own. Reset before the
	// server snapshots its metric baselines.
	array.ResetCache()
	component.ResetCache()
	_, ts := newTestServer(t, Config{})

	snap := func() MetricsSnapshot {
		resp, body := doJSON(t, "GET", ts.URL+"/metrics", nil)
		if resp.StatusCode != 200 {
			t.Fatalf("metrics: %d", resp.StatusCode)
		}
		return decode[MetricsSnapshot](t, body)
	}
	before := snap()

	// Script: 2 healthz, 1 good evaluate, 1 bad evaluate, 1 sweep job.
	doJSON(t, "GET", ts.URL+"/healthz", nil)
	doJSON(t, "GET", ts.URL+"/healthz", nil)
	cfg := tinyChip()
	doJSON(t, "POST", ts.URL+"/v1/evaluate", EvaluateRequest{Config: &cfg})
	doJSON(t, "POST", ts.URL+"/v1/evaluate", EvaluateRequest{})
	_, body := doJSON(t, "POST", ts.URL+"/v1/dse", DSERequest{
		Sweep: explore.Sweep{Cores: []int{2}, L2PerCoreKB: []int{64}, Fabrics: []string{"crossbar"}},
	})
	pollJob(t, ts.URL, decode[JobStatus](t, body).ID, 60*time.Second)

	after := snap()
	delta := func(route, status string) uint64 {
		return after.Requests[route][status] - before.Requests[route][status]
	}
	if got := delta("GET /healthz", "200"); got != 2 {
		t.Errorf("healthz 200 delta = %d, want 2", got)
	}
	if got := delta("POST /v1/evaluate", "200"); got != 1 {
		t.Errorf("evaluate 200 delta = %d, want 1", got)
	}
	if got := delta("POST /v1/evaluate", "400"); got != 1 {
		t.Errorf("evaluate 400 delta = %d, want 1", got)
	}
	if got := delta("POST /v1/dse", "202"); got != 1 {
		t.Errorf("dse 202 delta = %d, want 1", got)
	}
	if after.Jobs.Submitted != before.Jobs.Submitted+1 || after.Jobs.Done != before.Jobs.Done+1 {
		t.Errorf("job counters did not advance: %+v -> %+v", before.Jobs, after.Jobs)
	}
	// The sweep synthesized arrays, so the cache must have seen traffic.
	cacheMoved := after.Cache.Misses > before.Cache.Misses || after.Cache.Hits > before.Cache.Hits
	if !cacheMoved {
		t.Errorf("synthesis cache counters did not move: %+v -> %+v", before.Cache, after.Cache)
	}
	// Latency histograms recorded the script.
	lat := after.Latency["POST /v1/evaluate"]
	if lat.Count < 2 || lat.Buckets["+Inf"] < lat.Count {
		t.Errorf("latency histogram inconsistent: %+v", lat)
	}
	// The /metrics request itself is the only one in flight.
	if after.InFlight != 1 {
		t.Errorf("in-flight gauge = %d, want 1 (the metrics request)", after.InFlight)
	}
}
