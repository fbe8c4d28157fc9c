package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"mcpat/internal/chip"
	"mcpat/internal/config"
	"mcpat/internal/guard"
	"mcpat/internal/presets"
)

// maxBodyBytes bounds request bodies; chip descriptions are small.
const maxBodyBytes = 8 << 20

// testEvalHook, when set, runs inside every synchronous evaluation
// before the models are invoked; tests use it to stall requests (for
// admission and drain tests) or to inject guard-classified failures. A
// non-nil return replaces the evaluation's outcome. Atomic because an
// abandoned (timed-out) evaluation goroutine may still be around when a
// test swaps the hook out.
var testEvalHook atomic.Pointer[func(cfg *chip.Config) error]

// replyBufs recycles /v1/evaluate reply buffers. A reply is ~10 KB and
// written once, so a pooled buffer spares its allocation and regrowth.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// handleEvaluate serves POST /v1/evaluate: one synchronous chip
// synthesis plus report. The body is either the native EvaluateRequest
// JSON or, with an XML content type, a McPAT-style XML document.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	// Admission control: never queue synchronous work. A saturated
	// semaphore sheds the request immediately so the client can retry
	// against a less-loaded replica instead of stacking latency here.
	if !s.admit(w) {
		return
	}
	// The handler holds the slot until the evaluation goroutine takes it
	// over; from then on the goroutine releases it, so an evaluation
	// abandoned on deadline keeps its slot until it really stops.
	handedOff := false
	defer func() {
		if !handedOff {
			<-s.evalSem
		}
	}()

	req, aerr := decodeEvaluateRequest(r)
	if aerr != nil {
		writeError(w, http.StatusBadRequest, aerr)
		return
	}

	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}

	// The evaluation goroutine also encodes the reply, and frees the
	// slot before it hands the bytes over: a closed-loop client's next
	// request must not find its own previous slot still taken.
	type out struct {
		body *[]byte
		err  error
	}
	handedOff = true
	o, err := handOff(ctx, s.evalSem, func() out {
		body := replyBufs.Get().(*[]byte)
		b, err := evaluateReply(req, (*body)[:0])
		*body = b
		return out{body, err}
	})
	if err != nil {
		writeModelError(w, err)
		return
	}
	if o.err != nil {
		writeModelError(w, o.err)
	} else {
		writeBody(w, http.StatusOK, *o.body)
	}
	replyBufs.Put(o.body)
}

// handOff runs eval in a child goroutine that takes over the caller's
// evaluation slot and frees it when eval returns, then waits for eval
// or ctx, whichever ends first. The models are CPU-bound and cannot
// observe a context, so on deadline the evaluation is abandoned - the
// same containment the DSE engine uses per candidate - and keeps its
// slot until it really stops: MaxInFlight bounds running evaluations,
// not waiting handlers.
func handOff[T any](ctx context.Context, sem chan struct{}, eval func() T) (T, error) {
	ch := make(chan T, 1)
	go func() {
		v := eval()
		<-sem
		ch <- v
	}()
	select {
	case v := <-ch:
		return v, nil
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// evaluateReply evaluates req and appends the /v1/evaluate body, the
// compact JSON response and a newline, to dst.
func evaluateReply(req *EvaluateRequest, dst []byte) ([]byte, error) {
	resp, err := evaluateOnce(req)
	if err != nil {
		return dst, err
	}
	b, err := resp.AppendJSON(dst)
	if err != nil {
		return dst, fmt.Errorf("encode response: %w", err)
	}
	return append(b, '\n'), nil
}

// decodeEvaluateRequest parses the request body in either accepted
// representation.
func decodeEvaluateRequest(r *http.Request) (*EvaluateRequest, *APIError) {
	body := http.MaxBytesReader(nil, r.Body, maxBodyBytes)
	ct := r.Header.Get("Content-Type")
	if strings.Contains(ct, "xml") {
		root, err := config.Parse(body)
		if err != nil {
			return nil, &APIError{Kind: kindBadRequest, Message: fmt.Sprintf("parse XML: %v", err)}
		}
		cfg, err := config.ToChipConfig(root)
		if err != nil {
			return nil, &APIError{Kind: kindBadRequest, Message: fmt.Sprintf("map XML: %v", err)}
		}
		return &EvaluateRequest{Config: &cfg, Stats: config.ToStats(root)}, nil
	}
	var req EvaluateRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return nil, &APIError{Kind: kindBadRequest, Message: fmt.Sprintf("parse JSON: %v", err)}
	}
	if req.Preset == "" && req.Config == nil {
		return nil, &APIError{Kind: kindBadRequest, Message: "one of preset or config is required"}
	}
	return &req, nil
}

// evaluateOnce resolves the chip configuration, synthesizes it, and
// builds the response. Every error carries a guard kind.
func evaluateOnce(req *EvaluateRequest) (*EvaluateResponse, error) {
	cfg := req.Config
	if req.Preset != "" {
		p, err := presets.ByName(req.Preset)
		if err != nil {
			return nil, guard.Configf("evaluate", "unknown preset %q", req.Preset)
		}
		cfg = &p.Config
	}
	if hook := testEvalHook.Load(); hook != nil {
		if err := (*hook)(cfg); err != nil {
			return nil, err
		}
	}
	proc, err := chip.New(*cfg)
	if err != nil {
		return nil, err
	}
	rep, ds, err := proc.Check(req.Stats)
	if err != nil {
		return nil, err
	}
	if dErr := ds.Err(); dErr != nil {
		return nil, dErr
	}
	resp := &EvaluateResponse{
		Name:    cfg.Name,
		NM:      cfg.NM,
		ClockHz: cfg.ClockHz,
		TDPW:    rep.Peak(),
		AreaMM2: rep.Area * 1e6,
		Report:  rep,
	}
	if rep.RuntimeDynamic > 0 {
		resp.RuntimeW = rep.Runtime()
	}
	return resp, nil
}

// handleDSESubmit serves POST /v1/dse: validate, enqueue, 202.
func (s *Server) handleDSESubmit(w http.ResponseWriter, r *http.Request) {
	var req DSERequest
	body := http.MaxBytesReader(nil, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest,
			&APIError{Kind: kindBadRequest, Message: fmt.Sprintf("parse JSON: %v", err)})
		return
	}
	st, err := s.jobs.submit(&req)
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusTooManyRequests,
			&APIError{Kind: kindOverloaded, Message: "job queue full; retry"})
		return
	case err != nil:
		writeError(w, http.StatusBadRequest,
			&APIError{Kind: kindBadRequest, Message: err.Error()})
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

// handleJobGet serves GET /v1/jobs/{id}.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound,
			&APIError{Kind: kindNotFound, Message: fmt.Sprintf("no job %q", id)})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleJobList serves GET /v1/jobs: summaries, newest first.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.list()})
}

// handleJobCancel serves DELETE /v1/jobs/{id}: request cancellation and
// return the (possibly already terminal) status snapshot. Cancellation
// is asynchronous - poll the job until it reports a terminal state with
// the partial result.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.jobs.requestCancel(id)
	if !ok {
		writeError(w, http.StatusNotFound,
			&APIError{Kind: kindNotFound, Message: fmt.Sprintf("no job %q", id)})
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// handleHealthz serves GET /healthz. A draining server answers 503 so
// load balancers stop routing to it while in-flight work flushes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics serves GET /metrics as a JSON snapshot of the
// expvar-style counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.snapshot())
}
