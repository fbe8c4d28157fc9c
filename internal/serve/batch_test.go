package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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

// TestCanceledBatchFreesItsSlots ends a batch's request while one item
// evaluates on the admission slot and the other cannot start, because a
// stalled evaluation holds the server's other slot: the batch answers
// 200 with the running item's cancellation and the other as "batch
// canceled", and both slots come back once the stalled evaluations stop.
func TestCanceledBatchFreesItsSlots(t *testing.T) {
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	var once sync.Once
	unstall := func() { once.Do(func() { close(release) }) }
	withServeEvalHook(t, func(cfg *chip.Config) error {
		entered <- struct{}{}
		<-release
		return nil
	})
	s, _ := newTestServer(t, Config{MaxInFlight: 2})
	t.Cleanup(unstall) // before the server's drain, which waits for them
	h := s.Handler()
	cfg := tinyChip()
	body := func(v any) *bytes.Reader {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.NewReader(b)
	}

	go h.ServeHTTP(httptest.NewRecorder(),
		httptest.NewRequest("POST", "/v1/evaluate", body(EvaluateRequest{Config: &cfg})))
	<-entered // the stalled evaluation holds one slot

	ctx, cancel := context.WithCancel(context.Background())
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, httptest.NewRequestWithContext(ctx, "POST", "/v1/batch",
			body(BatchRequest{Items: []EvaluateRequest{{Config: &cfg}, {Config: &cfg}}})))
	}()
	<-entered // one item runs on the admission slot
	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the canceled batch never returned")
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("canceled batch: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	br := decode[BatchResponse](t, rec.Body.Bytes())
	waited := 0
	for _, it := range br.Items {
		if it.Error == nil || it.Error.Kind != guard.KindCanceled {
			t.Fatalf("every item must be canceled, got %s", rec.Body.Bytes())
		}
		if it.Error.Message == "batch canceled" {
			waited++
		}
	}
	if len(br.Items) != 2 || waited != 1 {
		t.Fatalf("want one running item canceled and one waiting item \"batch canceled\", got %s", rec.Body.Bytes())
	}

	unstall()
	for i := 0; i < 2; i++ {
		select {
		case s.evalSem <- struct{}{}:
		case <-time.After(30 * time.Second):
			t.Fatalf("slot %d never came back", i+1)
		}
	}
	<-s.evalSem
	<-s.evalSem
}
