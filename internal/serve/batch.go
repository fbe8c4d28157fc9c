package serve

// POST /v1/batch: evaluate many chip configurations in one request, so
// they share a single warm cache generation — every array and subsystem
// the first item synthesizes is a memory-cache hit for the rest. Items
// are independent: one bad config yields a per-item error, never a
// failed batch.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
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
// /v1/evaluate), and the first worker's first evaluation takes it
// over. Every item's evaluation frees its slot when it really stops, as
// on the evaluate path, so intra-batch workers acquire a slot before
// each further item: a batch can use idle capacity but never push total
// evaluation concurrency past MaxInFlight, abandoned items included.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	handedOff := false // to the first worker, once the batch is valid
	defer func() {
		if !handedOff {
			<-s.evalSem
		}
	}()

	var req BatchRequest
	body := http.MaxBytesReader(nil, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest,
			&APIError{Kind: kindBadRequest, Message: fmt.Sprintf("parse JSON: %v", err)})
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest,
			&APIError{Kind: kindBadRequest, Message: "items is required and must be non-empty"})
		return
	}
	if len(req.Items) > maxBatchItems {
		writeError(w, http.StatusBadRequest,
			&APIError{Kind: kindBadRequest,
				Message: fmt.Sprintf("batch of %d exceeds the %d-item limit", len(req.Items), maxBatchItems)})
		return
	}

	workers := req.Workers
	if workers <= 0 || workers > s.cfg.MaxInFlight {
		workers = s.cfg.MaxInFlight
	}
	if workers > len(req.Items) {
		workers = len(req.Items)
	}

	resp := &BatchResponse{Items: make([]BatchItemResult, len(req.Items))}
	idxCh := make(chan int)
	var wg sync.WaitGroup
	ctx := r.Context()
	handedOff = true
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(holdsSlot bool) { // worker 0 starts with the admission slot
			defer wg.Done()
			defer func() {
				if holdsSlot {
					<-s.evalSem
				}
			}()
			for i := range idxCh {
				item := &req.Items[i]
				if item.Preset == "" && item.Config == nil {
					resp.Items[i] = BatchItemResult{Index: i,
						Error: &APIError{Kind: kindBadRequest, Message: "one of preset or config is required"}}
					continue
				}
				if !holdsSlot {
					select {
					case s.evalSem <- struct{}{}:
					case <-ctx.Done():
						resp.Items[i] = batchCanceled(i)
						continue
					}
				}
				holdsSlot = false // the item's evaluation frees it
				resp.Items[i] = s.evalBatchItem(ctx, i, item)
			}
		}(w == 0)
	}
	for i := range req.Items {
		select {
		case idxCh <- i:
		case <-ctx.Done():
			// Mark the rest canceled; workers finish what they hold.
			for j := i; j < len(req.Items); j++ {
				select {
				case idxCh <- j:
				default:
					resp.Items[j] = batchCanceled(j)
				}
			}
			close(idxCh)
			wg.Wait()
			writeModelError(w, ctx.Err())
			return
		}
	}
	close(idxCh)
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

// evalBatchItem runs one item under the per-request timeout with the
// evaluate path's hand-off: the item's evaluation takes over the slot
// the caller holds and frees it when it really stops.
func (s *Server) evalBatchItem(ctx context.Context, i int, item *EvaluateRequest) BatchItemResult {
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	type out struct {
		resp *EvaluateResponse
		err  error
	}
	o, err := handOff(ctx, s.evalSem, func() out {
		resp, err := evaluateOnce(item)
		return out{resp, err}
	})
	if err == nil {
		err = o.err
	}
	if err != nil {
		return BatchItemResult{Index: i, Error: guard.Classify(err)}
	}
	return BatchItemResult{Index: i, Result: o.resp}
}
