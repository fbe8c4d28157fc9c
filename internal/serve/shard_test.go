package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mcpat/internal/array"
	"mcpat/internal/component"
	"mcpat/internal/distrib"
	"mcpat/internal/explore"
)

func shardBody(t *testing.T, req distrib.ShardRequest) *bytes.Reader {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

func shardTestRequest() distrib.ShardRequest {
	return distrib.ShardRequest{
		Sweep: explore.Sweep{
			Cores:       []int{2, 4, 8},
			L2PerCoreKB: []int{64, 128},
		},
		Start: 1,
		End:   4,
	}
}

func TestShardEndpointRequiresWorkerMode(t *testing.T) {
	srv := New(Config{}) // worker mode off
	defer srv.Shutdown(context.Background())
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest("POST", "/v1/dse/shard", shardBody(t, shardTestRequest())))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "worker mode disabled") {
		t.Errorf("body lacks the worker-mode hint: %s", rr.Body.String())
	}
}

func TestShardEndpointRejectsBadRangeBeforeStreaming(t *testing.T) {
	srv := New(Config{WorkerMode: true})
	defer srv.Shutdown(context.Background())
	req := shardTestRequest()
	req.End = 1000 // out of range for a 6-point space
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest("POST", "/v1/dse/shard", shardBody(t, req)))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (body: %s)", rr.Code, rr.Body.String())
	}
	if ct := rr.Header().Get("Content-Type"); strings.Contains(ct, "ndjson") {
		t.Errorf("setup error must not start the NDJSON stream (Content-Type %s)", ct)
	}
}

func TestShardEndpointStreamsProgressThenResult(t *testing.T) {
	srv := New(Config{WorkerMode: true})
	defer srv.Shutdown(context.Background())
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest("POST", "/v1/dse/shard", shardBody(t, shardTestRequest())))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 (body: %s)", rr.Code, rr.Body.String())
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q, want application/x-ndjson", ct)
	}

	dec := json.NewDecoder(rr.Body)
	var frames []distrib.Frame
	for dec.More() {
		var f distrib.Frame
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("decode frame %d: %v", len(frames), err)
		}
		frames = append(frames, f)
	}
	if len(frames) == 0 {
		t.Fatal("no frames streamed")
	}
	last := frames[len(frames)-1]
	if last.Type != "result" || last.Result == nil {
		t.Fatalf("last frame is %q, want result", last.Type)
	}
	res := last.Result
	if res.Start != 1 || res.End != 4 || len(res.Candidates) != 3 {
		t.Fatalf("result covers [%d,%d) with %d candidates, want [1,4) with 3", res.Start, res.End, len(res.Candidates))
	}
	for i, c := range res.Candidates {
		if c.Index < 1 || c.Index >= 4 {
			t.Errorf("candidate %d has global index %d outside [1,4)", i, c.Index)
		}
	}
	prev := 0
	for _, f := range frames[:len(frames)-1] {
		if f.Type != "progress" {
			t.Fatalf("interior frame is %q, want progress", f.Type)
		}
		if f.Done <= prev || f.Done > f.Total || f.Total != 3 {
			t.Fatalf("progress frame out of order or range: %+v after %d", f, prev)
		}
		prev = f.Done
	}

	snap := srv.metrics.snapshot()
	if snap.Shard.Served != 1 || snap.Shard.Candidates != 3 || snap.Shard.Failed != 0 {
		t.Errorf("shard metrics = %+v, want served=1 candidates=3 failed=0", snap.Shard)
	}
}

// TestDSEJobFansOutToRemoteWorkers wires a worker-mode server behind a
// coordinator-mode server and submits a normal /v1/dse job: the job
// must complete with the coordinator metrics populated in /metrics.
//
// The sweep spans two minimum-size shard ranges, so the coordinator's
// initial partition has one range per worker, and it starts from cold
// memos, so the local worker cannot finish its range and steal the
// other before the remote worker asks for it. (A one-range sweep on
// warm memos went entirely to the local worker.)
func TestDSEJobFansOutToRemoteWorkers(t *testing.T) {
	array.ResetCache()
	component.ResetCache()
	workerSrv := New(Config{WorkerMode: true})
	workerTS := httptest.NewServer(workerSrv.Handler())
	defer func() {
		workerTS.Close()
		workerSrv.Shutdown(context.Background())
	}()

	coordSrv := New(Config{RemoteWorkers: []string{workerTS.URL}})
	defer coordSrv.Shutdown(context.Background())

	body := `{"cores":[2,4,8,16],"l2_per_core_kb":[64,128,256,512]}` // two 8-candidate minimum shards
	rr := httptest.NewRecorder()
	coordSrv.Handler().ServeHTTP(rr, httptest.NewRequest("POST", "/v1/dse", strings.NewReader(body)))
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202 (body: %s)", rr.Code, rr.Body.String())
	}
	var st JobStatus
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}

	var final JobStatus
	waitFor(t, 30*time.Second, func() bool {
		rr := httptest.NewRecorder()
		coordSrv.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/v1/jobs/"+st.ID, nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("poll status %d", rr.Code)
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &final); err != nil {
			t.Fatal(err)
		}
		return final.State.Terminal()
	})
	if final.State != JobDone {
		t.Fatalf("job state %s, want done (error: %+v)", final.State, final.Error)
	}
	if final.Result == nil || len(final.Result.Candidates) != 16 {
		t.Fatalf("job result missing or wrong size: %+v", final.Result)
	}

	snap := coordSrv.metrics.snapshot()
	if snap.Distrib == nil || snap.Distrib.ShardsDispatched == 0 {
		t.Fatalf("coordinator metrics absent from snapshot: %+v", snap.Distrib)
	}
	wsnap := workerSrv.metrics.snapshot()
	if wsnap.Shard.Served == 0 {
		t.Error("worker served no shards")
	}
}
