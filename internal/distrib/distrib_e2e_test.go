// End-to-end coordinator/worker tests: real serve.Server workers behind
// httptest listeners, exercised over the actual NDJSON shard protocol.
// The external test package lets these import serve without a cycle
// (serve imports distrib for the wire types).
package distrib_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcpat/internal/chip"
	"mcpat/internal/distrib"
	"mcpat/internal/explore"
	"mcpat/internal/guard"
	"mcpat/internal/serve"
)

func e2eSpace() (explore.Space, explore.Constraints) {
	return explore.Space{
		Cores:        []int{2, 4, 8, 16, 32, 64, 128},
		L2PerCoreKB:  []int{32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384},
		Fabrics:      []chip.InterconnectKind{chip.Ring, chip.Crossbar},
		ClusterSizes: []int{1},
	}, explore.Constraints{MaxAreaMM2: 400, MaxTDP: 300}
}

// newWorker starts a worker-mode server on an httptest listener and
// returns its base URL.
func newWorker(t *testing.T) string {
	t.Helper()
	srv := serve.New(serve.Config{WorkerMode: true})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Shutdown(context.Background())
	})
	return ts.URL
}

func serialResult(t *testing.T, obj explore.Objective) *explore.Result {
	t.Helper()
	space, cons := e2eSpace()
	res, err := explore.SearchContext(context.Background(), explore.Params{}, space, cons, obj, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertSameSweep(t *testing.T, serial, dist *explore.Result) {
	t.Helper()
	if (dist.Best == nil) != (serial.Best == nil) {
		t.Fatalf("best presence differs")
	}
	if dist.Best != nil && *dist.Best != *serial.Best {
		t.Fatalf("best differs:\ndistributed %+v\nserial %+v", *dist.Best, *serial.Best)
	}
	if !reflect.DeepEqual(dist.Front, serial.Front) {
		t.Fatalf("front differs:\ndistributed %+v\nserial %+v", dist.Front, serial.Front)
	}
	if !reflect.DeepEqual(dist.Candidates, serial.Candidates) {
		t.Fatalf("candidate ranking differs (%d vs %d entries)",
			len(dist.Candidates), len(serial.Candidates))
	}
	if dist.Evaluated != serial.Evaluated || dist.Feasible != serial.Feasible {
		t.Fatalf("counts differ: distributed eval=%d feas=%d, serial eval=%d feas=%d",
			dist.Evaluated, dist.Feasible, serial.Evaluated, serial.Feasible)
	}
	if d, s := failuresJSON(t, dist), failuresJSON(t, serial); d != s {
		t.Fatalf("failures differ:\ndistributed %s\nserial      %s", d, s)
	}
	for i := range serial.Failures {
		d, s := guard.FirstLine(dist.Failures[i].String()), guard.FirstLine(serial.Failures[i].String())
		if d != s {
			t.Fatalf("failure %d reads differently:\ndistributed %s\nserial      %s", i, d, s)
		}
	}
}

// failuresJSON is the failure list as the service and mcpat-dse -json
// report it.
func failuresJSON(t *testing.T, res *explore.Result) string {
	t.Helper()
	b, err := json.Marshal(serve.NewDSEReport(res, explore.MaxThroughput).Failures)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDistributedSweepBitIdentical is the tentpole acceptance test: a
// sweep sharded across two real HTTP workers (plus the local engine)
// returns bit-identical winners, ranking, and front to the serial
// engine, with monotonic progress that converges to the space size.
func TestDistributedSweepBitIdentical(t *testing.T) {
	serial := serialResult(t, explore.MaxThroughput)
	space, cons := e2eSpace()

	m := &distrib.Metrics{}
	var lastDone atomic.Int64
	var regressed atomic.Bool
	dist, err := distrib.Run(context.Background(), explore.Params{}, space, cons,
		explore.MaxThroughput, &distrib.Options{
			Options: explore.Options{OnProgress: func(done, total int) {
				if int64(done) <= lastDone.Load() {
					regressed.Store(true)
				}
				lastDone.Store(int64(done))
			}},
			Remotes: []string{newWorker(t), newWorker(t)},
			Metrics: m,
		})
	if err != nil {
		t.Fatal(err)
	}
	assertSameSweep(t, serial, dist)
	if regressed.Load() {
		t.Error("cross-shard progress regressed")
	}
	if got := lastDone.Load(); got != int64(serial.SpaceSize) {
		t.Errorf("final progress %d, want %d", got, serial.SpaceSize)
	}
	st := m.Snapshot()
	if st.ShardsDispatched == 0 {
		t.Error("no shards dispatched")
	}
	if len(st.Workers) == 0 {
		t.Error("no per-worker stats recorded")
	}
}

// TestWorkerDeathNeverLosesCandidates kills a worker's connections
// mid-sweep: its range is requeued (shards_retried >= 1) and the sweep
// still completes with results bit-identical to the serial engine.
func TestWorkerDeathNeverLosesCandidates(t *testing.T) {
	serial := serialResult(t, explore.MaxThroughput)
	space, cons := e2eSpace()

	good := newWorker(t)
	// The flaky worker drops the TCP connection on its first two shard
	// requests — from the coordinator's side this is exactly a worker
	// process dying mid-shard — then recovers (proxying to a healthy
	// worker), like a restarted host rejoining the pool.
	healthy, _ := url.Parse(newWorker(t))
	proxy := httputil.NewSingleHostReverseProxy(healthy)
	proxy.FlushInterval = -1
	var hits atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			http.Error(w, "dying", http.StatusInternalServerError)
			return
		}
		proxy.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	m := &distrib.Metrics{}
	dist, err := distrib.Run(context.Background(), explore.Params{}, space, cons,
		explore.MaxThroughput, &distrib.Options{
			Remotes: []string{good, flaky.URL},
			Metrics: m,
		})
	if err != nil {
		t.Fatal(err)
	}
	assertSameSweep(t, serial, dist)
	st := m.Snapshot()
	if st.ShardsRetried < 1 {
		t.Errorf("shards_retried = %d, want >= 1", st.ShardsRetried)
	}
}

// TestDeadWorkerIsEjectedAfterRepeatedFailures pins the kill -9 story:
// a worker that dies and NEVER comes back (every dispatch to it is
// connection-refused) must not exhaust any range's retry budget — after
// three consecutive failures it is retired from the pool and the
// surviving workers finish the sweep bit-identical to the serial engine.
func TestDeadWorkerIsEjectedAfterRepeatedFailures(t *testing.T) {
	serial := serialResult(t, explore.MaxThroughput)
	space, cons := e2eSpace()

	// A listener that is already closed: dials fail instantly, forever.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	m := &distrib.Metrics{}
	dist, err := distrib.Run(context.Background(), explore.Params{}, space, cons,
		explore.MaxThroughput, &distrib.Options{
			Remotes: []string{newWorker(t), deadURL},
			Metrics: m,
		})
	if err != nil {
		t.Fatal(err)
	}
	assertSameSweep(t, serial, dist)
	st := m.Snapshot()
	if st.ShardsRetried < 1 {
		t.Errorf("shards_retried = %d, want >= 1", st.ShardsRetried)
	}
}

// TestPermanentErrorAbortsInsteadOfRetrying pins the guard-taxonomy
// mapping: a remote that rejects the shard outright (here an mcpatd
// running without -worker, answering 404) is an operator error that
// re-dispatching cannot fix, so the sweep fails fast with the
// classified message instead of burning the retry budget.
func TestPermanentErrorAbortsInsteadOfRetrying(t *testing.T) {
	space, cons := e2eSpace()
	srv := serve.New(serve.Config{}) // worker mode off
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Shutdown(context.Background())
	})

	m := &distrib.Metrics{}
	_, err := distrib.Coordinate(context.Background(), explore.Params{}, space, cons,
		explore.MaxThroughput, &distrib.Options{
			Remotes: []string{ts.URL},
			Metrics: m,
		}, false)
	if err == nil {
		t.Fatal("want an error from the non-worker remote, got success")
	}
	if !strings.Contains(err.Error(), "worker mode disabled") {
		t.Errorf("error does not carry the worker-mode hint: %v", err)
	}
	if st := m.Snapshot(); st.ShardsRetried != 0 {
		t.Errorf("permanent rejection burned %d retries; want 0", st.ShardsRetried)
	}
}

// TestCancellationReturnsPartialMerge pins the serial-engine parity of
// cancellation: a canceled distributed sweep returns promptly with
// ctx.Err() and whatever shards completed.
func TestCancellationReturnsPartialMerge(t *testing.T) {
	space, cons := e2eSpace()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := distrib.Run(ctx, explore.Params{}, space, cons,
		explore.MaxThroughput, &distrib.Options{Remotes: []string{newWorker(t)}})
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res == nil {
		t.Fatal("want a (possibly empty) partial result, got nil")
	}
}

// TestDistributedFailuresMatchSerial pins the failure half of the
// exactness contract. Under a deadline no candidate can meet, every
// candidate fails, and the distributed failure list must report each
// with the serial kind, path and message, whether its shard ran on the
// local worker or behind HTTP.
func TestDistributedFailuresMatchSerial(t *testing.T) {
	space := explore.Space{
		Cores:        []int{2, 4},
		L2PerCoreKB:  []int{64},
		Fabrics:      []chip.InterconnectKind{chip.Mesh},
		ClusterSizes: []int{1},
	}
	cons := explore.Constraints{}
	ctx := context.Background()
	serial, err := explore.SearchContext(ctx, explore.Params{}, space, cons, explore.MaxThroughput,
		&explore.Options{CandidateTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Failures) != 2 {
		t.Fatalf("serial sweep: %d failures, want 2", len(serial.Failures))
	}

	remote := shardServer(t, nil)
	deadline := explore.Options{CandidateTimeout: time.Nanosecond}

	for _, tc := range []struct {
		name      string
		opts      distrib.Options
		withLocal bool
	}{
		{"local", distrib.Options{Options: deadline}, true},
		{"remote", distrib.Options{Options: deadline, Remotes: []string{remote}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dist, err := distrib.Coordinate(ctx, explore.Params{}, space, cons, explore.MaxThroughput, &tc.opts, tc.withLocal)
			if err != nil {
				t.Fatal(err)
			}
			assertSameSweep(t, serial, dist)
		})
	}
}

// TestRemoteErrorKeepsClassification: a remote's classified rejection,
// in-band or as a pre-stream error body, reaches the caller with the
// guard kind and path it carried, and aborts without a retry.
func TestRemoteErrorKeepsClassification(t *testing.T) {
	const detail = `{"kind":"config","path":"dse.shard","message":"invalid configuration at dse.shard: unknown fabric \"warp\" (none|bus|crossbar|mesh|ring)"}`
	space, cons := e2eSpace()
	for _, tc := range []struct {
		name string
		h    http.HandlerFunc
	}{
		{"error frame", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			_, _ = io.WriteString(w, `{"type":"error","error":`+detail+"}\n")
		}},
		{"error body", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			_, _ = io.WriteString(w, `{"error":`+detail+"}\n")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(tc.h)
			t.Cleanup(ts.Close)
			m := &distrib.Metrics{}
			_, err := distrib.Coordinate(context.Background(), explore.Params{}, space, cons,
				explore.MaxThroughput, &distrib.Options{Remotes: []string{ts.URL}, Metrics: m}, false)
			if !errors.Is(err, guard.ErrConfig) || guard.PathOf(err) != "dse.shard" {
				t.Fatalf("want a config error at dse.shard, got %v (path %q)", err, guard.PathOf(err))
			}
			if st := m.Snapshot(); st.ShardsRetried != 0 {
				t.Errorf("a config rejection burned %d retries; want 0", st.ShardsRetried)
			}
		})
	}
}

// shardServer is a minimal worker: it decodes each shard request,
// hands it to capture when non-nil, and answers with EvalShard's result
// or error as one terminal frame. It returns the server's URL.
func shardServer(t *testing.T, capture func(distrib.ShardRequest)) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req distrib.ShardRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if capture != nil {
			capture(req)
		}
		spec, err := req.Spec()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := distrib.EvalShard(r.Context(), spec, nil)
		f := distrib.Frame{Type: "result", Result: res}
		if err != nil {
			f = distrib.Frame{Type: "error", Error: guard.Classify(err)}
		}
		_ = json.NewEncoder(w).Encode(f)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestRouteForwardsEngineOptions: on a coordinated sweep, the engine's
// Workers and CandidateTimeout reach the remote in every shard request,
// the deadline exactly.
func TestRouteForwardsEngineOptions(t *testing.T) {
	space, cons := e2eSpace()
	const timeout = 2*time.Second + 500*time.Microsecond
	var mu sync.Mutex
	var reqs []distrib.ShardRequest
	remote := shardServer(t, func(req distrib.ShardRequest) {
		mu.Lock()
		reqs = append(reqs, req)
		mu.Unlock()
	})
	_, err := distrib.Coordinate(context.Background(), explore.Params{}, space, cons,
		explore.MaxThroughput, &distrib.Options{
			Options: explore.Options{Workers: 3, CandidateTimeout: timeout},
			Remotes: []string{remote},
		}, false)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(reqs) == 0 {
		t.Fatal("the remote received no shard request")
	}
	for _, req := range reqs {
		if req.Workers != 3 || req.CandidateTimeoutNS != int64(timeout) {
			t.Fatalf("shard [%d,%d) arrived with workers %d, candidate_timeout_ns %d; want 3, %d",
				req.Start, req.End, req.Workers, req.CandidateTimeoutNS, int64(timeout))
		}
	}
}
