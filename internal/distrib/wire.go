// Package distrib scales design-space exploration out across multiple
// mcpatd worker processes. A coordinator partitions the exhaustive
// boustrophedon enumeration of an explore.Space into contiguous index
// ranges, dispatches them to workers over HTTP (POST /v1/dse/shard),
// work-steals by splitting the largest remaining tail when a worker
// runs dry, retries failed shards with jittered backoff, and merges the
// per-shard results exactly: the distributed sweep returns bit-identical
// winners, candidate ordering, and Pareto front to the single-process
// engine. Run is the one sweep entry point: it coordinates an
// exhaustive sweep that has remotes and hands every other sweep to the
// single-process engine.
//
// A built-in local worker always participates, so a coordinator with no
// reachable remotes degrades to (and exactly reproduces) the
// single-process sweep, and a sweep never stalls because every remote
// died — the local worker drains whatever ranges remain.
package distrib

import (
	"context"
	"sort"
	"time"

	"mcpat/internal/chip"
	"mcpat/internal/explore"
	"mcpat/internal/guard"
)

// ShardSpec is one unit of distributed work: the full sweep description
// plus the contiguous enumeration index range [Start, End) this worker
// evaluates. The coordinator keeps the sweep description constant and
// varies only the range.
type ShardSpec struct {
	Params explore.Params
	Space  explore.Space
	Cons   explore.Constraints
	Obj    explore.Objective

	Start int
	End   int

	// Workers bounds the engine's candidate-level parallelism inside
	// the worker evaluating this shard (0 = the worker's GOMAXPROCS).
	Workers int
	// CandidateTimeout is the per-candidate deadline (0 = none).
	CandidateTimeout time.Duration
}

// ShardRequest is the JSON body of POST /v1/dse/shard: the /v1/dse
// sweep description, then the shard range and engine options.
type ShardRequest struct {
	explore.Sweep

	Start int `json:"start"`
	End   int `json:"end"`

	Workers            int `json:"workers,omitempty"`
	CandidateTimeoutMS int `json:"candidate_timeout_ms,omitempty"`
	// CandidateTimeoutNS carries a deadline that is not a whole number
	// of milliseconds exactly; candidate_timeout_ms then holds it
	// rounded up, for workers that predate this field.
	CandidateTimeoutNS int64 `json:"candidate_timeout_ns,omitempty"`
}

// Spec validates the wire request and converts it to engine inputs.
// Range-vs-space validation is left to the engine (via ShardRange), so
// worker and coordinator reject identical ranges identically.
func (r *ShardRequest) Spec() (ShardSpec, error) {
	p, space, cons, obj, err := r.Inputs()
	if err != nil {
		return ShardSpec{}, guard.Configf("dse.shard", "%v", err)
	}
	timeout := time.Duration(r.CandidateTimeoutMS) * time.Millisecond
	if r.CandidateTimeoutNS != 0 {
		timeout = time.Duration(r.CandidateTimeoutNS)
	}
	return ShardSpec{
		Params: p, Space: space, Cons: cons, Obj: obj,
		Start:            r.Start,
		End:              r.End,
		Workers:          r.Workers,
		CandidateTimeout: timeout,
	}, nil
}

// Wire converts the spec to its request form.
func (s *ShardSpec) Wire() ShardRequest {
	req := ShardRequest{
		Sweep:              explore.NewSweep(s.Params, s.Space, s.Cons, s.Obj),
		Start:              s.Start,
		End:                s.End,
		Workers:            s.Workers,
		CandidateTimeoutMS: int(s.CandidateTimeout / time.Millisecond),
	}
	if s.CandidateTimeout%time.Millisecond > 0 {
		req.CandidateTimeoutMS++
		req.CandidateTimeoutNS = int64(s.CandidateTimeout)
	}
	return req
}

// ShardCandidate is the wire form of one evaluated design point inside
// a shard result. Unlike the /v1/dse candidate form it carries the raw
// engine fields (instructions/s, not GIPS) plus the global enumeration
// index, because the coordinator's merge must reproduce the serial
// sweep bit for bit — encoding/json round-trips float64 exactly, and
// the index restores proposal order across shards.
type ShardCandidate struct {
	Index int `json:"index"`

	Cores       int    `json:"cores"`
	L2PerCoreKB int    `json:"l2_per_core_kb"`
	Fabric      string `json:"fabric"`
	ClusterSize int    `json:"cluster_size"`

	TDPW     float64 `json:"tdp_w"`
	AreaMM2  float64 `json:"area_mm2"`
	PerfIPS  float64 `json:"perf_ips"`
	RuntimeW float64 `json:"runtime_w"`

	Feasible bool    `json:"feasible"`
	Reject   string  `json:"reject,omitempty"`
	Score    float64 `json:"score"`
}

// ShardFailure is one hard per-candidate failure inside a shard.
type ShardFailure struct {
	Index     int             `json:"index"`
	Candidate ShardCandidate  `json:"candidate"`
	Error     guard.WireError `json:"error"`
}

// ShardResult is the final frame of a shard evaluation: every evaluated
// candidate (feasible and rejected alike) in global enumeration order
// and the hard failures. The coordinator rebuilds the Pareto front from
// the candidates.
type ShardResult struct {
	Start      int              `json:"start"`
	End        int              `json:"end"`
	Evaluated  int              `json:"evaluated"`
	Candidates []ShardCandidate `json:"candidates"`
	Failures   []ShardFailure   `json:"failures,omitempty"`
}

// Frame is one NDJSON record of the shard stream: interleaved
// "progress" frames while the worker evaluates, then exactly one
// terminal "result" or "error" frame.
type Frame struct {
	Type   string           `json:"type"` // "progress" | "result" | "error"
	Done   int              `json:"done,omitempty"`
	Total  int              `json:"total,omitempty"`
	Result *ShardResult     `json:"result,omitempty"`
	Error  *guard.WireError `json:"error,omitempty"`
}

// axisKey identifies a design point by its swept axes; unique within a
// space because the enumeration is a cross-product.
type axisKey struct {
	cores, l2, fabric, cluster int
}

func keyOf(c *explore.Candidate) axisKey {
	return axisKey{c.Cores, c.L2PerCoreKB, int(c.Fabric), c.ClusterSize}
}

// indexMap maps each design point of the shard back to its global
// enumeration index.
func indexMap(space explore.Space, start, end int) map[axisKey]int {
	specs := explore.Enumerate(space)
	m := make(map[axisKey]int, end-start)
	for i := start; i < end; i++ {
		m[keyOf(&specs[i])] = i
	}
	return m
}

func toWire(c *explore.Candidate, index int) ShardCandidate {
	return ShardCandidate{
		Index:       index,
		Cores:       c.Cores,
		L2PerCoreKB: c.L2PerCoreKB,
		Fabric:      c.Fabric.String(),
		ClusterSize: c.ClusterSize,
		TDPW:        c.TDP,
		AreaMM2:     c.AreaMM2,
		PerfIPS:     c.Perf,
		RuntimeW:    c.RunW,
		Feasible:    c.Feasible,
		Reject:      c.Reject,
		Score:       c.Score,
	}
}

// fromWire converts a wire candidate back to the engine form. The
// fabric name always parses on a well-formed result (it was produced by
// String()); a corrupted name degrades to the zero kind rather than
// failing the merge, and the property tests pin the round-trip.
func fromWire(c *ShardCandidate) explore.Candidate {
	k, _ := chip.ParseInterconnect(c.Fabric)
	return explore.Candidate{
		Cores:       c.Cores,
		L2PerCoreKB: c.L2PerCoreKB,
		Fabric:      k,
		ClusterSize: c.ClusterSize,
		TDP:         c.TDPW,
		AreaMM2:     c.AreaMM2,
		Perf:        c.PerfIPS,
		RunW:        c.RuntimeW,
		Feasible:    c.Feasible,
		Reject:      c.Reject,
		Score:       c.Score,
	}
}

// EvalShard evaluates one shard with the single-process engine and
// packages the outcome in wire form. It is the one evaluation path for
// every worker: the serve layer calls it to answer POST /v1/dse/shard,
// and the coordinator's built-in local worker calls it directly.
// onProgress, when non-nil, receives the engine's shard-local progress.
func EvalShard(ctx context.Context, spec ShardSpec, onProgress func(done, total int)) (*ShardResult, error) {
	opts := &explore.Options{
		Workers:          spec.Workers,
		CandidateTimeout: spec.CandidateTimeout,
		OnProgress:       onProgress,
		Shard:            &explore.ShardRange{Start: spec.Start, End: spec.End},
	}
	res, err := explore.SearchContext(ctx, spec.Params, spec.Space, spec.Cons, spec.Obj, opts)
	if err != nil {
		return nil, err
	}
	idx := indexMap(spec.Space, spec.Start, spec.End)
	out := &ShardResult{
		Start:      spec.Start,
		End:        spec.End,
		Evaluated:  res.Evaluated,
		Candidates: make([]ShardCandidate, 0, len(res.Candidates)),
	}
	for i := range res.Candidates {
		c := &res.Candidates[i]
		out.Candidates = append(out.Candidates, toWire(c, idx[keyOf(c)]))
	}
	// The engine ranks candidates by score; the merge wants enumeration
	// order, so restore it here where the index is at hand.
	sort.Slice(out.Candidates, func(i, j int) bool {
		return out.Candidates[i].Index < out.Candidates[j].Index
	})
	for i := range res.Failures {
		f := &res.Failures[i]
		out.Failures = append(out.Failures, ShardFailure{
			Index:     idx[keyOf(&f.Candidate)],
			Candidate: toWire(&f.Candidate, idx[keyOf(&f.Candidate)]),
			Error:     *guard.Classify(f.Err),
		})
	}
	sort.Slice(out.Failures, func(i, j int) bool {
		return out.Failures[i].Index < out.Failures[j].Index
	})
	return out, nil
}
