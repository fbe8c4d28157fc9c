package serve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"mcpat/internal/distrib"
	"mcpat/internal/explore"
	"mcpat/internal/guard"
)

// maxShardBodyBytes bounds POST /v1/dse/shard bodies; a shard request
// is a sweep description plus two integers, so this is generous.
const maxShardBodyBytes = 1 << 20

// handleDSEShard serves POST /v1/dse/shard: evaluate one contiguous
// enumeration range of an exhaustive DSE sweep and stream the outcome
// as NDJSON — interleaved {"type":"progress"} frames while candidates
// evaluate, then exactly one terminal {"type":"result"} or
// {"type":"error"} frame. Setup errors (bad JSON, bad space, range out
// of bounds) arrive as a plain JSON error body with the guard
// classification before any streaming begins.
//
// The endpoint only answers when the server runs in worker mode
// (mcpatd -worker): shard evaluation is a coordinator-facing internal
// protocol, not a public API, and a default server should not expose
// compute that bypasses the job queue.
func (s *Server) handleDSEShard(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.WorkerMode {
		writeError(w, http.StatusNotFound,
			&APIError{Kind: kindBadRequest, Message: "worker mode disabled (start mcpatd -worker)"})
		return
	}

	// Shards run whole sub-sweeps, so they compete with /v1/evaluate
	// for the admission slots; shedding here makes the coordinator
	// retry elsewhere instead of queueing unboundedly.
	if !s.admit(w) {
		return
	}
	defer func() { <-s.evalSem }()

	var req distrib.ShardRequest
	body := http.MaxBytesReader(nil, r.Body, maxShardBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest,
			&APIError{Kind: kindBadRequest, Message: fmt.Sprintf("parse JSON: %v", err)})
		return
	}
	spec, err := req.Spec()
	if err != nil {
		writeModelError(w, err)
		return
	}
	// Validate the range against the space before committing to the
	// stream, so out-of-bounds shards fail with a proper 400 instead of
	// an in-band frame.
	total, err := explore.PlannedEvaluations(spec.Space,
		&explore.Options{Shard: &explore.ShardRange{Start: spec.Start, End: spec.End}})
	if err != nil {
		writeModelError(w, err)
		return
	}

	s.metrics.shardsServed.Add(1)
	// Announce the shard before streaming: the completed-request log
	// line only appears when the stream ends, and an operator watching a
	// worker wants to see what it is working on while it works.
	s.cfg.Logf("mcpatd: shard [%d,%d) accepted (%d candidates)", spec.Start, spec.End, total)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	writeFrame := func(f distrib.Frame) error {
		b, err := json.Marshal(f)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
		return rc.Flush()
	}

	// Progress frames are paced so a big shard streams ~64 updates
	// rather than one per candidate; the final candidate always
	// reports, so the coordinator's tracker converges exactly.
	stride := total / 64
	if stride < 1 {
		stride = 1
	}
	// Shards are long-lived by design; liveness comes from progress
	// frames and the client connection (r.Context()), not from the
	// synchronous RequestTimeout.
	res, err := distrib.EvalShard(r.Context(), spec, func(done, total int) {
		if done%stride == 0 || done == total {
			_ = writeFrame(distrib.Frame{Type: "progress", Done: done, Total: total})
		}
	})
	if err != nil {
		s.metrics.shardsFailed.Add(1)
		_ = writeFrame(distrib.Frame{Type: "error", Error: guard.Classify(err)})
		return
	}
	s.metrics.shardCandidates.Add(uint64(len(res.Candidates)))
	_ = writeFrame(distrib.Frame{Type: "result", Result: res})
}
