package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mcpat/internal/array"
	"mcpat/internal/chip"
	"mcpat/internal/component"
	"mcpat/internal/config"
	"mcpat/internal/core"
	"mcpat/internal/explore"
	"mcpat/internal/guard"
)

// tinyChip returns a deliberately small configuration so synchronous
// evaluations stay fast under the race detector.
func tinyChip() chip.Config {
	return chip.Config{
		Name: "tiny", NM: 45, ClockHz: 1e9, NumCores: 1,
		Core: core.Config{
			Threads: 1, IntALUs: 1,
			ICache: core.CacheParams{Bytes: 8 << 10, BlockBytes: 32, Assoc: 2},
			DCache: core.CacheParams{Bytes: 8 << 10, BlockBytes: 32, Assoc: 2},
		},
	}
}

// newTestServer builds a Server plus its httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// withServeEvalHook installs the synchronous-evaluation hook for one
// test.
func withServeEvalHook(t *testing.T, hook func(cfg *chip.Config) error) {
	t.Helper()
	testEvalHook.Store(&hook)
	t.Cleanup(func() { testEvalHook.Store(nil) })
}

func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decode[T any](t *testing.T, data []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("decode %T from %s: %v", v, data, err)
	}
	return v
}

func TestEvaluateJSONConfig(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cfg := tinyChip()
	resp, body := doJSON(t, "POST", ts.URL+"/v1/evaluate", EvaluateRequest{Config: &cfg})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	ev := decode[EvaluateResponse](t, body)
	if ev.Name != "tiny" || ev.TDPW <= 0 || ev.AreaMM2 <= 0 || ev.Report == nil {
		t.Fatalf("implausible response: %+v", ev)
	}
	if ev.Report.Name != "tiny" {
		t.Errorf("report root should carry the chip name, got %q", ev.Report.Name)
	}
}

func TestEvaluatePreset(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := doJSON(t, "POST", ts.URL+"/v1/evaluate", EvaluateRequest{Preset: "arm-a9"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	ev := decode[EvaluateResponse](t, body)
	if ev.TDPW <= 0 {
		t.Fatalf("preset evaluation returned no power: %+v", ev)
	}
}

func TestEvaluateXML(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var buf bytes.Buffer
	if err := config.FromChipConfig(tinyChip()).Write(&buf); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("POST", ts.URL+"/v1/evaluate", &buf)
	req.Header.Set("Content-Type", "application/xml")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	ev := decode[EvaluateResponse](t, data)
	if ev.Name != "tiny" || ev.TDPW <= 0 {
		t.Fatalf("XML round trip failed: %+v", ev)
	}
}

// TestGuardKindStatusMapping drives each guard error kind through the
// real HTTP path and checks the documented status code and error body.
func TestGuardKindStatusMapping(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		wantStatus int
		wantKind   string
	}{
		{"config", guard.Configf("chip.core", "bad core count"), 400, "config"},
		{"infeasible", guard.Infeasiblef("chip.L2", "no organization meets 5 GHz"), 422, "infeasible"},
		{"model_domain", guard.Domainf("chip.noc", "negative router power"), 422, "model_domain"},
		{"internal", guard.Internalf("chip.core[0]", "recovered panic: boom\nstack..."), 500, "internal"},
	}
	_, ts := newTestServer(t, Config{})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			withServeEvalHook(t, func(cfg *chip.Config) error { return tc.err })
			cfg := tinyChip()
			resp, body := doJSON(t, "POST", ts.URL+"/v1/evaluate", EvaluateRequest{Config: &cfg})
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.wantStatus, body)
			}
			eb := decode[ErrorBody](t, body)
			if eb.Error.Kind != tc.wantKind {
				t.Errorf("kind %q, want %q", eb.Error.Kind, tc.wantKind)
			}
			if eb.Error.Path == "" || !strings.HasPrefix(eb.Error.Path, "chip") {
				t.Errorf("error body must carry the component path, got %q", eb.Error.Path)
			}
			if strings.Contains(eb.Error.Message, "\n") {
				t.Errorf("multi-line internals must be trimmed: %q", eb.Error.Message)
			}
		})
	}
}

func TestEvaluateBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Malformed JSON.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/evaluate", strings.NewReader("{not json"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 || decode[ErrorBody](t, data).Error.Kind != kindBadRequest {
		t.Fatalf("malformed JSON: status %d body %s", resp.StatusCode, data)
	}

	// Neither preset nor config.
	resp, body := doJSON(t, "POST", ts.URL+"/v1/evaluate", EvaluateRequest{})
	if resp.StatusCode != 400 {
		t.Fatalf("empty request: status %d body %s", resp.StatusCode, body)
	}

	// Unknown preset classifies as a config error.
	resp, body = doJSON(t, "POST", ts.URL+"/v1/evaluate", EvaluateRequest{Preset: "pentium-9"})
	if resp.StatusCode != 400 || decode[ErrorBody](t, body).Error.Kind != "config" {
		t.Fatalf("unknown preset: status %d body %s", resp.StatusCode, body)
	}

	// An unknown fabric kind and a zero flit width are config errors
	// at the chip's fabric.
	for name, mutate := range map[string]func(*chip.Config){
		"fabric kind 9": func(c *chip.Config) { c.NoC = chip.NoCSpec{Kind: 9, FlitBits: 64} },
		"flit 0":        func(c *chip.Config) { c.NoC = chip.NoCSpec{Kind: chip.Bus} },
	} {
		cfg := tinyChip()
		mutate(&cfg)
		resp, body = doJSON(t, "POST", ts.URL+"/v1/evaluate", EvaluateRequest{Config: &cfg})
		if resp.StatusCode != 400 || decode[ErrorBody](t, body).Error.Kind != "config" {
			t.Fatalf("%s: status %d body %s", name, resp.StatusCode, body)
		}
	}

	// Malformed XML.
	req, _ = http.NewRequest("POST", ts.URL+"/v1/evaluate", strings.NewReader("<unclosed"))
	req.Header.Set("Content-Type", "text/xml")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("malformed XML: status %d body %s", resp.StatusCode, data)
	}

	// Two roots: the document is refused, not evaluated for its first.
	doc := config.FromChipConfig(tinyChip()).String()
	req, _ = http.NewRequest("POST", ts.URL+"/v1/evaluate", strings.NewReader(doc+doc))
	req.Header.Set("Content-Type", "application/xml")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 || decode[ErrorBody](t, data).Error.Kind != kindBadRequest {
		t.Fatalf("two XML roots: status %d body %s", resp.StatusCode, data)
	}
}

// TestEvaluateBodyLimit: a body one byte over maxBodyBytes, its root
// still open at the limit, is a 400 bad_request in either representation.
func TestEvaluateBodyLimit(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	for ct, head := range map[string]string{
		"application/xml":  `<component id="system" type="System">`,
		"application/json": `{"preset":"niagara",`,
	} {
		body := head + strings.Repeat(" ", maxBodyBytes+1-len(head))
		req := httptest.NewRequest("POST", "/v1/evaluate", strings.NewReader(body))
		req.Header.Set("Content-Type", ct)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 400 || decode[ErrorBody](t, rec.Body.Bytes()).Error.Kind != kindBadRequest {
			t.Errorf("%s body over the limit: status %d body %s", ct, rec.Code, rec.Body.Bytes())
		}
	}
}

// TestAdmissionControl saturates the single evaluation slot and checks
// the second request is shed with 429 + Retry-After instead of queued.
func TestAdmissionControl(t *testing.T) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	withServeEvalHook(t, func(cfg *chip.Config) error {
		entered <- struct{}{}
		<-release
		return nil
	})
	_, ts := newTestServer(t, Config{MaxInFlight: 1})

	type result struct {
		status int
		body   []byte
	}
	first := make(chan result, 1)
	go func() {
		cfg := tinyChip()
		resp, body := doJSON(t, "POST", ts.URL+"/v1/evaluate", EvaluateRequest{Config: &cfg})
		first <- result{resp.StatusCode, body}
	}()
	<-entered // the slot is held

	cfg := tinyChip()
	resp, body := doJSON(t, "POST", ts.URL+"/v1/evaluate", EvaluateRequest{Config: &cfg})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server must shed with 429, got %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 must carry Retry-After")
	}
	if decode[ErrorBody](t, body).Error.Kind != kindOverloaded {
		t.Errorf("want kind %q, body %s", kindOverloaded, body)
	}

	close(release)
	r := <-first
	if r.status != http.StatusOK {
		t.Fatalf("the admitted request must still complete: %d %s", r.status, r.body)
	}
}

// TestRequestTimeout checks the per-request deadline abandons a stuck
// evaluation with 504.
func TestRequestTimeout(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	withServeEvalHook(t, func(cfg *chip.Config) error {
		<-release
		return nil
	})
	_, ts := newTestServer(t, Config{RequestTimeout: 50 * time.Millisecond})
	cfg := tinyChip()
	resp, body := doJSON(t, "POST", ts.URL+"/v1/evaluate", EvaluateRequest{Config: &cfg})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("want 504, got %d: %s", resp.StatusCode, body)
	}
	if decode[ErrorBody](t, body).Error.Kind != guard.KindTimeout {
		t.Errorf("want kind timeout, body %s", body)
	}
}

// TestJobLifecycle runs a real one-candidate sweep through submit ->
// poll -> result.
func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := doJSON(t, "POST", ts.URL+"/v1/dse", DSERequest{
		Sweep: explore.Sweep{Cores: []int{2}, L2PerCoreKB: []int{64}, Fabrics: []string{"crossbar"}},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d body %s", resp.StatusCode, body)
	}
	st := decode[JobStatus](t, body)
	if st.ID == "" || st.State.Terminal() {
		t.Fatalf("fresh job must be live with an id: %+v", st)
	}
	if st.CandidatesTotal != 1 {
		t.Errorf("total must be known at submit: %+v", st)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Errorf("Location %q", loc)
	}

	final := pollJob(t, ts.URL, st.ID, 60*time.Second)
	if final.State != JobDone {
		t.Fatalf("job did not finish cleanly: %+v", final)
	}
	if final.Result == nil || final.Result.Evaluated != 1 || final.Result.Best == nil {
		t.Fatalf("finished job must carry its result: %+v", final.Result)
	}
	if final.CandidatesDone != 1 || final.CandidatesTotal != 1 {
		t.Errorf("progress must reach 1/1: %+v", final)
	}
	if final.StartedAt == nil || final.FinishedAt == nil {
		t.Errorf("timestamps missing: %+v", final)
	}
	if final.Result.Best.Fabric != "crossbar" || final.Result.Best.Cores != 2 {
		t.Errorf("wrong design point: %+v", final.Result.Best)
	}

	// The list endpoint shows the job without its (potentially large)
	// result payload.
	resp, body = doJSON(t, "GET", ts.URL+"/v1/jobs", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("list: %d", resp.StatusCode)
	}
	list := decode[struct {
		Jobs []JobStatus `json:"jobs"`
	}](t, body)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID || list.Jobs[0].Result != nil {
		t.Fatalf("list must summarize without results: %s", body)
	}
}

func pollJob(t *testing.T, base, id string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, body := doJSON(t, "GET", base+"/v1/jobs/"+id, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: status %d body %s", resp.StatusCode, body)
		}
		st := decode[JobStatus](t, body)
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish in %s: %+v", id, timeout, st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestJobNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, method := range []string{"GET", "DELETE"} {
		resp, body := doJSON(t, method, ts.URL+"/v1/jobs/job-doesnotexist", nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d", method, resp.StatusCode)
		}
		if decode[ErrorBody](t, body).Error.Kind != kindNotFound {
			t.Errorf("%s: body %s", method, body)
		}
	}
}

func TestDSEBadRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := doJSON(t, "POST", ts.URL+"/v1/dse", DSERequest{Sweep: explore.Sweep{Fabrics: []string{"hypercube"}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown fabric: status %d body %s", resp.StatusCode, body)
	}
	resp, body = doJSON(t, "POST", ts.URL+"/v1/dse", DSERequest{Sweep: explore.Sweep{Objective: "fastest"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown objective: status %d body %s", resp.StatusCode, body)
	}
}

// TestDSEReportCountersBytes pins the wire bytes of a sweep report's
// three counter sections (cache, subsys_cache, array_optimizer), which
// mcpat-dse -json, finished jobs and /metrics clients decode. The
// expected body must not change.
func TestDSEReportCountersBytes(t *testing.T) {
	res := &explore.Result{}
	res.Cache.Hits, res.Cache.Misses, res.Cache.Shared, res.Cache.Bypassed = 7, 3, 1, 2
	res.Cache.Entries = 11
	res.Subsys.Kinds[component.KindCore] = component.KindStats{Hits: 4, Misses: 1}
	res.Subsys.Kinds[component.KindFabric] = component.KindStats{Hits: 2, Misses: 2, Shared: 1, Bypassed: 3}
	res.Subsys.Entries = 5
	res.ArrayOpt = array.OptimizerStats{Evaluated: 100, Pruned: 7}
	got, err := json.Marshal(NewDSEReport(res, explore.MaxThroughput))
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"objective":"throughput","search":"exhaustive","space_size":0,"evaluated":0,"feasible":0,"candidates":[],` +
		`"cache":{"hits":7,"misses":3,"shared":1,"bypassed":2,"entries":11,"hit_rate":0.7},` +
		`"subsys_cache":{"hits":6,"misses":3,"shared":1,"bypassed":3,"entries":5,"hit_rate":0.6666666666666666,` +
		`"kinds":{"core":{"hits":4,"misses":1},"fabric":{"hits":2,"misses":2,"shared":1,"bypassed":3}}},` +
		`"array_optimizer":{"evaluated":100,"pruned":7,"prune_rate":0.06542056074766354}}`
	if string(got) != want {
		t.Errorf("report bytes changed:\n got %s\nwant %s", got, want)
	}
}
