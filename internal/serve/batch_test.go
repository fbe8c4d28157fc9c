package serve

import (
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"mcpat/internal/chip"
	"mcpat/internal/guard"
)

func TestBatchEvaluate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cfg := tinyChip()
	bad := cfg
	bad.NM = 3 // outside the supported tech range

	resp, body := doJSON(t, "POST", ts.URL+"/v1/batch", BatchRequest{
		Items: []EvaluateRequest{
			{Config: &cfg},
			{Config: &bad},
			{}, // neither preset nor config
			{Config: &cfg},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	br := decode[BatchResponse](t, body)
	if br.Succeeded != 2 || br.Failed != 2 || len(br.Items) != 4 {
		t.Fatalf("succeeded=%d failed=%d items=%d, want 2/2/4", br.Succeeded, br.Failed, len(br.Items))
	}
	for i, item := range br.Items {
		if item.Index != i {
			t.Errorf("item %d carries index %d", i, item.Index)
		}
	}
	if br.Items[0].Result == nil || br.Items[3].Result == nil {
		t.Fatal("good items missing results")
	}
	if !reflect.DeepEqual(br.Items[0].Result, br.Items[3].Result) {
		t.Error("identical items produced different results")
	}
	if br.Items[1].Error == nil || br.Items[2].Error == nil {
		t.Fatal("bad items missing errors")
	}
	if br.Items[2].Error.Kind != kindBadRequest {
		t.Errorf("empty item: want bad_request, got %+v", br.Items[2].Error)
	}

	// The batch result matches a single evaluation of the same config.
	resp, single := doJSON(t, "POST", ts.URL+"/v1/evaluate", EvaluateRequest{Config: &cfg})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single evaluate: %d", resp.StatusCode)
	}
	if !reflect.DeepEqual(*br.Items[0].Result, decode[EvaluateResponse](t, single)) {
		t.Error("batch item result differs from single /v1/evaluate")
	}
}

func TestBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name string
		body any
	}{
		{"empty items", BatchRequest{}},
		{"malformed JSON", "not json"},
	} {
		resp, body := doJSON(t, "POST", ts.URL+"/v1/batch", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", tc.name, resp.StatusCode, body)
		}
	}
}

// TestAbandonedBatchItemKeepsSlot is TestAbandonedEvaluationKeepsSlot
// for /v1/batch: a batch item abandoned on its deadline keeps its
// evaluation slot until the evaluation really finishes, so a batch
// cannot push running evaluations past MaxInFlight either.
func TestAbandonedBatchItemKeepsSlot(t *testing.T) {
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

	resp, body := doJSON(t, "POST", ts.URL+"/v1/batch", BatchRequest{Items: []EvaluateRequest{{Config: &cfg}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	br := decode[BatchResponse](t, body)
	if len(br.Items) != 1 || br.Items[0].Error == nil || br.Items[0].Error.Kind != guard.KindTimeout {
		t.Fatalf("stalled batch item: want a %q error, got %s", guard.KindTimeout, body)
	}
	resp, body = doJSON(t, "POST", ts.URL+"/v1/evaluate", EvaluateRequest{Config: &cfg})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("the abandoned batch item still runs: want 429, got %d: %s", resp.StatusCode, body)
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
		t.Fatal("the abandoned batch item never released its slot")
	}
	resp, body = doJSON(t, "POST", ts.URL+"/v1/evaluate", EvaluateRequest{Config: &cfg})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after the slot is freed: want 200, got %d: %s", resp.StatusCode, body)
	}
}
