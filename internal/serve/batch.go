package serve

// POST /v1/batch: evaluate many chip configurations in one request, so
// they share a single warm cache generation — every array and subsystem
// the first item synthesizes is a memory-cache hit for the rest. Items
// are independent: one bad config yields a per-item error, never a
// failed batch.

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sync"

	"mcpat/internal/guard"
)

// maxBatchItems bounds one batch; larger workloads belong in /v1/dse
// jobs or several batches.
const maxBatchItems = 1024

// BatchRequest is the JSON body of POST /v1/batch.
type BatchRequest struct {
	// Items are evaluated with the same semantics as POST /v1/evaluate.
	Items []EvaluateRequest `json:"items"`
	// Workers bounds concurrent item evaluations within the batch;
	// <= 0 selects the server's MaxInFlight.
	Workers int `json:"workers,omitempty"`
}

// BatchItemResult is one item's outcome, in input order. Exactly one of
// Result and Error is set.
type BatchItemResult struct {
	Index  int               `json:"index"`
	Result *EvaluateResponse `json:"result,omitempty"`
	Error  *APIError         `json:"error,omitempty"`
}

// BatchResponse is the 200 body of POST /v1/batch. The batch succeeds
// as a whole (200) even when individual items fail; inspect Failed.
type BatchResponse struct {
	Items     []BatchItemResult `json:"items"`
	Succeeded int               `json:"succeeded"`
	Failed    int               `json:"failed"`
}

// handleBatch serves POST /v1/batch. Admission takes one synchronous
// evaluation slot up front (shed with 429 when saturated, like
// /v1/evaluate). The handler then walks the items in order, and each
// evaluation holds one of workers batch tokens and one server slot
// until it really stops, as on the evaluate path: the first item that
// names a chip inherits the admission slot, and every later one waits
// for a slot of its own. An item that has not started when the request
// ends reads "batch canceled". A batch can use idle capacity but never
// push total evaluation concurrency past MaxInFlight, abandoned items
// included.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	var req BatchRequest
	if !decodeJSON(w, r, maxBodyBytes, &req) {
		<-s.evalSem
		return
	}
	if len(req.Items) == 0 {
		<-s.evalSem
		writeError(w, http.StatusBadRequest,
			&APIError{Kind: kindBadRequest, Message: "items is required and must be non-empty"})
		return
	}
	if len(req.Items) > maxBatchItems {
		<-s.evalSem
		writeError(w, http.StatusBadRequest,
			&APIError{Kind: kindBadRequest,
				Message: fmt.Sprintf("batch of %d exceeds the %d-item limit", len(req.Items), maxBatchItems)})
		return
	}

	workers := req.Workers
	if workers <= 0 || workers > s.cfg.MaxInFlight {
		workers = s.cfg.MaxInFlight
	}
	// The first item with a chip inherits the admission slot and the
	// token put here; a batch without one frees the slot now.
	tokens := make(chan struct{}, workers)
	tokens <- struct{}{}
	first := slices.IndexFunc(req.Items, namesChip)
	if first < 0 {
		<-s.evalSem
	}

	resp := &BatchResponse{Items: make([]BatchItemResult, len(req.Items))}
	ctx := r.Context()
	var wg sync.WaitGroup
	for i := range req.Items {
		item := &req.Items[i]
		if !namesChip(*item) {
			resp.Items[i] = BatchItemResult{Index: i,
				Error: &APIError{Kind: kindBadRequest, Message: "one of preset or config is required"}}
			continue
		}
		if i != first {
			select {
			case tokens <- struct{}{}:
			case <-ctx.Done():
				resp.Items[i] = batchCanceled(i)
				continue
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp.Items[i] = s.evalBatchItem(ctx, i, item, i == first, tokens)
		}()
	}
	wg.Wait()

	for i := range resp.Items {
		if resp.Items[i].Error == nil {
			resp.Succeeded++
		} else {
			resp.Failed++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func batchCanceled(i int) BatchItemResult {
	return BatchItemResult{Index: i, Error: &APIError{Kind: guard.KindCanceled, Message: "batch canceled"}}
}

// namesChip reports whether an evaluation request names its chip.
func namesChip(req EvaluateRequest) bool { return req.Preset != "" || req.Config != nil }

// evalBatchItem runs one item through handOff once it holds a server
// slot: the inherited admission slot, or one it waits for here. The
// evaluation frees the item's batch token when it returns; handOff
// frees the slot.
func (s *Server) evalBatchItem(ctx context.Context, i int, item *EvaluateRequest, inherited bool, tokens chan struct{}) BatchItemResult {
	if !inherited {
		select {
		case s.evalSem <- struct{}{}:
		case <-ctx.Done():
			<-tokens
			return batchCanceled(i)
		}
	}
	resp, err := handOff(ctx, s, func() (*EvaluateResponse, error) {
		defer func() { <-tokens }()
		return evaluateOnce(item)
	})
	if err != nil {
		return BatchItemResult{Index: i, Error: guard.Classify(err)}
	}
	return BatchItemResult{Index: i, Result: resp}
}
