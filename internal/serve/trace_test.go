package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"mcpat/internal/chip"
	"mcpat/internal/trace"
)

// gem5Fixture loads the checked-in config.json/stats.txt pair.
func gem5Fixture(t *testing.T) (config, stats string) {
	t.Helper()
	cfg, err := os.ReadFile("../trace/testdata/config.json")
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.ReadFile("../trace/testdata/stats.txt")
	if err != nil {
		t.Fatal(err)
	}
	return string(cfg), string(st)
}

// postTrace posts a trace request and returns the response without
// reading the body (callers stream it).
func postTrace(t *testing.T, url string, req TraceRequest) *http.Response {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/trace", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestTraceStreamsNDJSON pins the endpoint's contract: the stream is
// application/x-ndjson framed chip/sample.../summary, and the records
// are exactly what the library engine produces for the same pair.
func TestTraceStreamsNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cfgJSON, statsTxt := gem5Fixture(t)

	resp := postTrace(t, ts.URL, TraceRequest{
		Gem5Config: json.RawMessage(cfgJSON),
		StatsTxt:   statsTxt,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	var types []string
	var samples []trace.Sample
	var summary *trace.Summary
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec trace.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		types = append(types, rec.Type)
		switch rec.Type {
		case "chip":
			if rec.Chip == nil || rec.Chip.NumCores != 2 || rec.Chip.ClockHz != 2.5e9 {
				t.Fatalf("chip header %+v", rec.Chip)
			}
			if rec.Chip.Intervals != 3 || rec.Chip.TDPW <= 0 {
				t.Fatalf("chip header %+v", rec.Chip)
			}
		case "sample":
			samples = append(samples, *rec.Sample)
		case "summary":
			summary = rec.Summary
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(types, ",") != "chip,sample,sample,sample,summary" {
		t.Fatalf("frame sequence %v", types)
	}

	// The streamed records match a library-side run over the same input.
	eng, ivs, _, err := trace.FromGem5(strings.NewReader(cfgJSON), strings.NewReader(statsTxt))
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Run(context.Background(), ivs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range samples {
		w := want.Samples[i]
		if s.TotalW != w.TotalW || s.DynamicW != w.DynamicW || s.EnergyJ != w.EnergyJ {
			t.Fatalf("sample %d: streamed %+v vs library %+v", i, s, w)
		}
	}
	if summary == nil || *summary != want.Summary {
		t.Fatalf("summary %+v vs %+v", summary, want.Summary)
	}
}

// TestTracePresetSource pins the alternate chip sources: a preset plus
// raw stats works without a gem5 config.
func TestTracePresetSource(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, statsTxt := gem5Fixture(t)
	resp := postTrace(t, ts.URL, TraceRequest{Preset: "atom-class", StatsTxt: statsTxt})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var n int
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		n++
	}
	if n != 5 {
		t.Fatalf("%d records", n)
	}
}

// TestTraceBadRequests pins the pre-stream error contract: setup
// failures are plain JSON error bodies with guard classification — a
// malformed gem5 config is 400/"config" with the JSON path.
func TestTraceBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, statsTxt := gem5Fixture(t)
	cases := []struct {
		name   string
		req    TraceRequest
		status int
		kind   string
		path   string
	}{
		{"no source", TraceRequest{StatsTxt: statsTxt}, 400, "config", ""},
		{"no stats", TraceRequest{Preset: "atom-class"}, 400, "config", ""},
		{"unknown preset", TraceRequest{Preset: "nope", StatsTxt: statsTxt}, 400, "config", ""},
		{"bad gem5 config", TraceRequest{Gem5Config: json.RawMessage(`{"system":{}}`), StatsTxt: statsTxt},
			400, "config", "gem5.config.system.cpu"},
		{"gem5 zero clock", TraceRequest{
			Gem5Config: json.RawMessage(`{"system":{"cpu":{"type":"DerivO3CPU","clk_domain":{"clock":[0]}}}}`),
			StatsTxt:   statsTxt}, 400, "config", ".clock"},
		{"empty stats", TraceRequest{Preset: "atom-class", StatsTxt: "no counters here"}, 400, "config", "trace.stats"},
	}
	for _, tc := range cases {
		resp := postTrace(t, ts.URL, tc.req)
		var body ErrorBody
		err := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.StatusCode != tc.status || body.Error.Kind != tc.kind {
			t.Fatalf("%s: %d/%s (%s)", tc.name, resp.StatusCode, body.Error.Kind, body.Error.Message)
		}
		if tc.path != "" && !strings.Contains(body.Error.Path, tc.path) {
			t.Fatalf("%s: path %q lacks %q", tc.name, body.Error.Path, tc.path)
		}
	}
}

// TestTraceClientCancelMidStream pins streaming teardown: a client that
// disappears mid-stream must not wedge the server — the next request
// completes normally.
func TestTraceClientCancelMidStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cfgJSON, statsTxt := gem5Fixture(t)
	b, err := json.Marshal(TraceRequest{Gem5Config: json.RawMessage(cfgJSON), StatsTxt: statsTxt})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/trace", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	// Read just the first record, then abandon the stream.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		cancel()
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	// The server stays healthy: a fresh stream completes end to end.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp2 := postTrace(t, ts.URL, TraceRequest{Gem5Config: json.RawMessage(cfgJSON), StatsTxt: statsTxt})
		if resp2.StatusCode == http.StatusOK {
			var n int
			sc := bufio.NewScanner(resp2.Body)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
				n++
			}
			resp2.Body.Close()
			if n != 5 {
				t.Fatalf("%d records after cancel", n)
			}
			return
		}
		resp2.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("server did not recover after client cancel: status %d", resp2.StatusCode)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestTraceMetrics pins the counters: streams and per-interval samples
// show up in the /metrics snapshot.
func TestTraceMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	cfgJSON, statsTxt := gem5Fixture(t)
	resp := postTrace(t, ts.URL, TraceRequest{Gem5Config: json.RawMessage(cfgJSON), StatsTxt: statsTxt})
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
	}
	resp.Body.Close()
	snap := s.metrics.snapshot()
	if snap.Trace.Streams != 1 || snap.Trace.Samples != 3 {
		t.Fatalf("trace metrics %+v", snap.Trace)
	}
}

// TestTraceThermalOptions pins the closed-loop endpoint contract: a
// request with thermal options streams samples carrying the hotspot
// temperature and applied frequency, throttled intervals are flagged by
// the scheduled governor, and the thermal stream/throttle counters show
// up in the /metrics snapshot. A bad thermal spec is a 400 before the
// stream starts.
func TestTraceThermalOptions(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	cfgJSON, statsTxt := gem5Fixture(t)

	resp := postTrace(t, ts.URL, TraceRequest{
		Gem5Config: json.RawMessage(cfgJSON),
		StatsTxt:   statsTxt,
		Thermal: &TraceThermalOptions{
			RthetaJA:     0.8,
			AmbientK:     318,
			UseFloorplan: true,
			Governor:     "schedule",
			FreqSchedule: []float64{1, 0.8, 1},
		},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var samples []trace.Sample
	var summary *trace.Summary
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec trace.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch rec.Type {
		case "sample":
			samples = append(samples, *rec.Sample)
		case "summary":
			summary = rec.Summary
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("%d samples", len(samples))
	}
	for i, smp := range samples {
		if smp.TemperatureK <= 0 || smp.FreqHz <= 0 {
			t.Fatalf("sample %d lacks thermal fields: %+v", i, smp)
		}
	}
	if !samples[1].Throttled || samples[0].Throttled || samples[2].Throttled {
		t.Fatalf("schedule should throttle exactly interval 1: %+v", samples)
	}
	if summary == nil || summary.ThrottledIntervals != 1 || summary.MaxTempK <= 0 {
		t.Fatalf("summary lacks thermal aggregates: %+v", summary)
	}

	snap := s.metrics.snapshot()
	if snap.Trace.ThermalStreams != 1 || snap.Trace.ThrottledSamples != 1 {
		t.Fatalf("thermal metrics %+v", snap.Trace)
	}

	// Invalid thermal specs fail before the stream starts.
	bad := []TraceThermalOptions{
		{},                                    // missing Rtheta
		{RthetaJA: 0.8, Governor: "ondemand"}, // unknown policy
		{RthetaJA: 0.8, Governor: "schedule"}, // schedule without entries
	}
	for i, th := range bad {
		opts := th
		r := postTrace(t, ts.URL, TraceRequest{
			Gem5Config: json.RawMessage(cfgJSON),
			StatsTxt:   statsTxt,
			Thermal:    &opts,
		})
		var body ErrorBody
		err := json.NewDecoder(r.Body).Decode(&body)
		r.Body.Close()
		if err != nil {
			t.Fatalf("bad case %d: %v", i, err)
		}
		if r.StatusCode != 400 || body.Error.Kind != "config" {
			t.Fatalf("bad case %d: %d/%s (%s)", i, r.StatusCode, body.Error.Kind, body.Error.Message)
		}
	}
}

// TestStreamsFlushThroughHandler drives both NDJSON endpoints through
// the middleware chain: each must flush as it streams, or a shard's
// progress frames sit in the connection buffer until its result frame.
func TestStreamsFlushThroughHandler(t *testing.T) {
	s := New(Config{WorkerMode: true})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	cfgJSON, statsTxt := gem5Fixture(t)
	traceBody, err := json.Marshal(TraceRequest{Gem5Config: json.RawMessage(cfgJSON), StatsTxt: statsTxt})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path string
		body io.Reader
	}{
		{"/v1/trace", bytes.NewReader(traceBody)},
		{"/v1/dse/shard", shardBody(t, shardTestRequest())},
	} {
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, httptest.NewRequest("POST", tc.path, tc.body))
		if rr.Code != http.StatusOK || !rr.Flushed {
			t.Errorf("%s: status %d, flushed %v; want 200 and flushed", tc.path, rr.Code, rr.Flushed)
		}
	}
}

// TestAbandonedTraceSetupKeepsSlot checks that a trace setup abandoned
// on its deadline keeps its admission slot until the synthesis really
// stops, as an abandoned evaluation does.
func TestAbandonedTraceSetupKeepsSlot(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	unstall := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unstall)
	withServeEvalHook(t, func(cfg *chip.Config) error {
		<-release
		return nil
	})
	s, ts := newTestServer(t, Config{MaxInFlight: 1, RequestTimeout: 50 * time.Millisecond})
	_, statsTxt := gem5Fixture(t)
	cfg := tinyChip()

	resp := postTrace(t, ts.URL, TraceRequest{Config: &cfg, StatsTxt: statsTxt})
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stalled trace setup: want 504, got %d: %s", resp.StatusCode, body)
	}
	resp, body = doJSON(t, "POST", ts.URL+"/v1/evaluate", EvaluateRequest{Config: &cfg})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("the abandoned setup still runs: want 429, got %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 must carry Retry-After")
	}

	// Once the stalled setup returns, its goroutine frees the slot.
	unstall()
	select {
	case s.evalSem <- struct{}{}:
		<-s.evalSem
	case <-time.After(30 * time.Second):
		t.Fatal("the abandoned setup never released its slot")
	}
	resp, body = doJSON(t, "POST", ts.URL+"/v1/evaluate", EvaluateRequest{Config: &cfg})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after the slot is freed: want 200, got %d: %s", resp.StatusCode, body)
	}
}
