package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"mcpat/internal/chip"
	"mcpat/internal/config"
	"mcpat/internal/core"
	"mcpat/internal/guard"
	"mcpat/internal/presets"
)

// evalBody is one prepared POST /v1/evaluate body.
type evalBody struct {
	preset, kind string // kind is "preset", "json" or "xml"
	body         []byte
}

func (e evalBody) label() string { return e.preset + "/" + e.kind }

func (e evalBody) contentType() string {
	if e.kind == "xml" {
		return "application/xml"
	}
	return "application/json"
}

func (e evalBody) request() *http.Request {
	r := httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewReader(e.body))
	r.Header.Set("Content-Type", e.contentType())
	return r
}

// presetBodies returns every bundled preset three ways: by name, as
// native JSON config with runtime stats, and as McPAT XML with stats.
func presetBodies(t testing.TB) []evalBody {
	t.Helper()
	var out []evalBody
	for _, p := range presets.All() {
		cfg := p.Config
		u := 0.5
		stats := &chip.Stats{
			CoreRun:    core.PeakActivity(cfg.Core).Scale(u),
			L2Reads:    u * 0.05 * cfg.ClockHz,
			L2Writes:   u * 0.02 * cfg.ClockHz,
			NoCFlits:   u * 0.04 * cfg.ClockHz,
			MCAccesses: u * 0.01 * cfg.ClockHz,
		}
		byName, err := json.Marshal(EvaluateRequest{Preset: p.Name})
		if err != nil {
			t.Fatal(err)
		}
		native, err := json.Marshal(EvaluateRequest{Config: &cfg, Stats: stats})
		if err != nil {
			t.Fatal(err)
		}
		root := config.FromChipConfig(cfg)
		config.FromStats(root, stats)
		var xml bytes.Buffer
		if err := root.Write(&xml); err != nil {
			t.Fatal(err)
		}
		out = append(out, evalBody{p.Name, "preset", byName},
			evalBody{p.Name, "json", native}, evalBody{p.Name, "xml", xml.Bytes()})
	}
	return out
}

// indentedReference is the reference /v1/evaluate body for resp in its
// indented form: encoding/json's reflection over the response fields,
// indented as its Encoder indents, plus a newline. The report inside
// goes through power.Item's MarshalJSON, which FuzzItemAppendJSON pins
// to its own reflection-based reference.
func indentedReference(t *testing.T, resp *EvaluateResponse) []byte {
	t.Helper()
	type fields EvaluateResponse // the same tags, without the MarshalJSON method
	b, err := json.Marshal((*fields)(resp))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, b, "", "  "); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte('\n')
	return buf.Bytes()
}

// TestEvaluateBodyIsCompactReference pins the /v1/evaluate wire bytes:
// for every preset sent by name, as JSON and as XML, the body is the
// compacted reflection-encoded reply plus a newline, with Content-Type
// and Content-Length, and a /v1/batch item's result carries the same
// bytes.
func TestEvaluateBodyIsCompactReference(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	bodies := presetBodies(t)
	var batch BatchRequest
	var sent [][]byte
	for _, e := range bodies {
		rec := httptest.NewRecorder()
		req := decodeEvaluateRequest(rec, e.request())
		if req == nil {
			t.Fatalf("%s: %s", e.label(), rec.Body.Bytes())
		}
		batch.Items = append(batch.Items, *req)
		resp, err := evaluateOnce(req)
		if err != nil {
			t.Fatalf("%s: %v", e.label(), err)
		}
		var want bytes.Buffer
		if err := json.Compact(&want, indentedReference(t, resp)); err != nil {
			t.Fatal(err)
		}
		want.WriteByte('\n')

		hr, err := http.Post(ts.URL+"/v1/evaluate", e.contentType(), bytes.NewReader(e.body))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		_, err = got.ReadFrom(hr.Body)
		hr.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", e.label(), hr.StatusCode, got.Bytes())
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: body differs from the compacted reference\n got %s\nwant %s", e.label(), got.Bytes(), want.Bytes())
		}
		if ct := hr.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", e.label(), ct)
		}
		if cl := hr.Header.Get("Content-Length"); cl != strconv.Itoa(got.Len()) {
			t.Errorf("%s: Content-Length %q for a %d-byte body", e.label(), cl, got.Len())
		}
		sent = append(sent, got.Bytes())
	}

	resp, body := doJSON(t, "POST", ts.URL+"/v1/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	br := decode[struct {
		Items []struct {
			Result json.RawMessage `json:"result"`
			Error  *APIError       `json:"error"`
		} `json:"items"`
	}](t, body)
	if len(br.Items) != len(bodies) {
		t.Fatalf("batch returned %d items for %d", len(br.Items), len(bodies))
	}
	for i, it := range br.Items {
		if it.Error != nil {
			t.Fatalf("%s: batch item failed: %v", bodies[i].label(), it.Error)
		}
		if want := bytes.TrimSuffix(sent[i], []byte("\n")); !bytes.Equal(it.Result, want) {
			t.Errorf("%s: batch result differs from the /v1/evaluate body\n got %s\nwant %s", bodies[i].label(), it.Result, want)
		}
	}
}

// TestAbandonedEvaluationKeepsSlot checks that an evaluation abandoned
// on its deadline keeps its admission slot until it really finishes, so
// MaxInFlight bounds running evaluations, not waiting handlers.
func TestAbandonedEvaluationKeepsSlot(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	unstall := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unstall)
	withServeEvalHook(t, func(cfg *chip.Config) error {
		<-release
		return nil
	})
	s, ts := newTestServer(t, Config{MaxInFlight: 1, RequestTimeout: 50 * time.Millisecond})
	cfg := tinyChip()

	resp, body := doJSON(t, "POST", ts.URL+"/v1/evaluate", EvaluateRequest{Config: &cfg})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stalled evaluation: want 504, got %d: %s", resp.StatusCode, body)
	}
	resp, body = doJSON(t, "POST", ts.URL+"/v1/evaluate", EvaluateRequest{Config: &cfg})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("the abandoned evaluation still runs: want 429, got %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 must carry Retry-After")
	}

	// Once the stalled evaluation returns, its goroutine frees the slot.
	unstall()
	select {
	case s.evalSem <- struct{}{}:
		<-s.evalSem
	case <-time.After(30 * time.Second):
		t.Fatal("the abandoned evaluation never released its slot")
	}
	resp, body = doJSON(t, "POST", ts.URL+"/v1/evaluate", EvaluateRequest{Config: &cfg})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after the slot is freed: want 200, got %d: %s", resp.StatusCode, body)
	}
}

// TestWriteJSONEncodeFailure checks that a reply that cannot be encoded
// is a 500 with the internal error body, never a status with an empty
// body, on both the generic writer and the evaluate writer's error path.
func TestWriteJSONEncodeFailure(t *testing.T) {
	check := func(name string, rec *httptest.ResponseRecorder) {
		t.Helper()
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("%s: status %d, body %q", name, rec.Code, rec.Body.Bytes())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", name, ct)
		}
		if eb := decode[ErrorBody](t, rec.Body.Bytes()); eb.Error.Kind != guard.KindInternal {
			t.Errorf("%s: kind %q, want %q", name, eb.Error.Kind, guard.KindInternal)
		}
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	check("writeJSON", rec)

	resp := &EvaluateResponse{Name: "x", NM: 45, ClockHz: math.Inf(1)}
	dst := []byte("keep")
	b, err := resp.AppendJSON(dst)
	if err == nil || string(b) != "keep" {
		t.Fatalf("AppendJSON of +Inf: %q, %v; want dst unchanged and an error", b, err)
	}
	rec = httptest.NewRecorder()
	writeModelError(rec, err)
	check("evaluate writer", rec)
}

// BenchmarkEvaluateHandler is the /v1/evaluate rung of the layer
// ladder: the full handler chain on an in-memory recorder, over every
// preset's body of one kind, on warm memos.
func BenchmarkEvaluateHandler(b *testing.B) {
	all := presetBodies(b)
	s := New(Config{})
	b.Cleanup(func() {
		if err := s.Shutdown(context.Background()); err != nil {
			b.Errorf("shutdown: %v", err)
		}
	})
	h := s.Handler()
	for _, kind := range []string{"preset", "json", "xml"} {
		var bodies []evalBody
		for _, e := range all {
			if e.kind == kind {
				bodies = append(bodies, e)
			}
		}
		b.Run(kind, func(b *testing.B) {
			serve := func(e evalBody) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, e.request())
				if rec.Code != http.StatusOK {
					b.Fatalf("%s: status %d: %s", e.label(), rec.Code, rec.Body.Bytes())
				}
			}
			for _, e := range bodies { // warm the memos
				serve(e)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve(bodies[i%len(bodies)])
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/op")
		})
	}
}
