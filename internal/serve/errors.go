package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"

	"mcpat/internal/guard"
)

// Error kinds beyond the guard taxonomy, used for transport-level
// failures.
const (
	kindBadRequest = "bad_request"
	kindNotFound   = "not_found"
	kindOverloaded = "overloaded"
	kindTimeout    = "timeout"
	kindDraining   = "draining"
	kindCanceled   = "canceled"
	kindInternal   = "internal"
)

// classify maps an evaluation error onto its HTTP status and error
// kind. The guard taxonomy drives the mapping: caller mistakes are 4xx,
// model bugs are 5xx.
//
//	ErrConfig      -> 400 "config"        (malformed / out-of-range input)
//	ErrInfeasible  -> 422 "infeasible"    (well-formed, no physical solution)
//	ErrModelDomain -> 422 "model_domain"  (outputs left the validity domain)
//	ErrInternal    -> 500 "internal"      (contained panic / framework bug)
//
// Context errors from per-request deadlines and drain map to 504/503.
func classify(err error) (status int, kind string) {
	switch {
	case errors.Is(err, guard.ErrConfig):
		return http.StatusBadRequest, "config"
	case errors.Is(err, guard.ErrInfeasible):
		return http.StatusUnprocessableEntity, "infeasible"
	case errors.Is(err, guard.ErrModelDomain):
		return http.StatusUnprocessableEntity, "model_domain"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, kindTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, kindCanceled
	}
	return http.StatusInternalServerError, kindInternal
}

// apiError converts any evaluation error into the wire form, preserving
// the guard component path and classifying the kind.
func apiError(err error) *APIError {
	if err == nil {
		return nil
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae
	}
	_, kind := classify(err)
	return &APIError{Kind: kind, Path: guard.PathOf(err), Message: firstLine(err.Error())}
}

// firstLine trims multi-line diagnostics (recovered panic stacks) to
// their headline; the full trace belongs in server logs, not responses.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// writeJSON writes body as compact JSON with the given status. The body
// is encoded before anything is sent, so a value encoding/json rejects
// becomes a 500 with the internal error body, never a status with an
// empty body.
func writeJSON(w http.ResponseWriter, status int, body any) {
	b, err := json.Marshal(body)
	if err != nil {
		writeError(w, http.StatusInternalServerError,
			&APIError{Kind: kindInternal, Message: "encode response: " + firstLine(err.Error())})
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
	status, _ := classify(err)
	writeError(w, status, apiError(err))
}
