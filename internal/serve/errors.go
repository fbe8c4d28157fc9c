package serve

import (
	"encoding/json"
	"net/http"
	"strconv"

	"mcpat/internal/guard"
)

// Transport error kinds, beside the guard.Kind* names.
const (
	kindBadRequest = "bad_request"
	kindNotFound   = "not_found"
	kindOverloaded = "overloaded"
	kindDraining   = "draining"
)

// statusOf maps an error kind onto its HTTP status. The guard taxonomy
// drives the mapping: caller mistakes are 4xx, model bugs are 5xx.
//
//	config        -> 400 (malformed / out-of-range input)
//	infeasible    -> 422 (well-formed, no physical solution)
//	model_domain  -> 422 (outputs left the validity domain)
//	internal      -> 500 (contained panic / framework bug)
//
// Context errors from per-request deadlines and drain map to 504/503.
func statusOf(kind string) int {
	switch kind {
	case guard.KindConfig:
		return http.StatusBadRequest
	case guard.KindInfeasible, guard.KindModelDomain:
		return http.StatusUnprocessableEntity
	case guard.KindTimeout:
		return http.StatusGatewayTimeout
	case guard.KindCanceled:
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// writeJSON writes body as compact JSON with the given status. The body
// is encoded before anything is sent, so a value encoding/json rejects
// becomes a 500 with the internal error body, never a status with an
// empty body.
func writeJSON(w http.ResponseWriter, status int, body any) {
	b, err := json.Marshal(body)
	if err != nil {
		writeError(w, http.StatusInternalServerError,
			&APIError{Kind: guard.KindInternal, Message: "encode response: " + guard.FirstLine(err.Error())})
		return
	}
	writeBody(w, status, append(b, '\n'))
}

// writeBody sends an encoded JSON body in one Write, with its length.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	// A failed write means the client is gone; there is no one to tell.
	_, _ = w.Write(body)
}

// writeError writes the structured error body for a classified failure.
func writeError(w http.ResponseWriter, status int, e *APIError) {
	writeJSON(w, status, ErrorBody{Error: *e})
}

// writeModelError classifies a model error and writes both status and
// body from it.
func writeModelError(w http.ResponseWriter, err error) {
	e := guard.Classify(err)
	writeError(w, statusOf(e.Kind), e)
}

// admit takes an evaluation slot without waiting. When none is free it
// sheds the request with 429 and Retry-After and reports false.
func (s *Server) admit(w http.ResponseWriter) bool {
	select {
	case s.evalSem <- struct{}{}:
		return true
	default:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			&APIError{Kind: kindOverloaded, Message: "evaluation capacity saturated; retry"})
		return false
	}
}
