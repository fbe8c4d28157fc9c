package serve

import (
	"time"

	"mcpat/internal/array"
	"mcpat/internal/chip"
	"mcpat/internal/component"
	"mcpat/internal/distrib"
	"mcpat/internal/explore"
	"mcpat/internal/guard"
	"mcpat/internal/power"
)

// EvaluateRequest is the JSON body of POST /v1/evaluate. Exactly one of
// Preset or Config selects the chip; Stats optionally adds runtime
// activity so the response carries runtime power next to TDP. Clients
// that prefer the original tool's interface can instead POST a
// McPAT-style XML document with an XML content type, which carries both
// the configuration and the <stat> entries.
type EvaluateRequest struct {
	// Preset names a bundled chip template ("niagara", "arm-a9", ...).
	Preset string `json:"preset,omitempty"`
	// Config is the native chip description; ignored when Preset is set.
	Config *chip.Config `json:"config,omitempty"`
	// Stats is the optional runtime activity vector.
	Stats *chip.Stats `json:"stats,omitempty"`
}

// EvaluateResponse is the 200 body of POST /v1/evaluate.
type EvaluateResponse struct {
	Name     string  `json:"name"`
	NM       float64 `json:"nm"`
	ClockHz  float64 `json:"clock_hz"`
	TDPW     float64 `json:"tdp_w"`
	AreaMM2  float64 `json:"area_mm2"`
	RuntimeW float64 `json:"runtime_w,omitempty"`
	// Report is the hierarchical power/area tree (see power.Item JSON).
	Report *power.Item `json:"report"`
}

// AppendJSON appends the compact JSON form of the response to dst, in
// the format the struct tags describe, through power's number, string
// and report writers. On a NaN or infinite value it returns dst
// unchanged and the encoding error.
func (r *EvaluateResponse) AppendJSON(dst []byte) ([]byte, error) {
	b := append(dst, `{"name":`...)
	b = power.AppendJSONString(b, r.Name)
	var err error
	num := func(key string, v float64) {
		if err == nil {
			b = append(b, key...)
			b, err = power.AppendJSONFloat(b, v)
		}
	}
	num(`,"nm":`, r.NM)
	num(`,"clock_hz":`, r.ClockHz)
	num(`,"tdp_w":`, r.TDPW)
	num(`,"area_mm2":`, r.AreaMM2)
	if r.RuntimeW != 0 {
		num(`,"runtime_w":`, r.RuntimeW)
	}
	if err != nil {
		return dst, err
	}
	b = append(b, `,"report":`...)
	if r.Report == nil {
		b = append(b, "null"...)
	} else if b, err = r.Report.AppendJSON(b); err != nil {
		return dst, err
	}
	return append(b, '}'), nil
}

// MarshalJSON encodes the response with AppendJSON, so /v1/batch items
// carry the bytes /v1/evaluate sends.
func (r *EvaluateResponse) MarshalJSON() ([]byte, error) {
	return r.AppendJSON(nil)
}

// APIError is the structured error detail inside every non-2xx body.
// Its Kind is a guard kind or a transport kind ("bad_request",
// "not_found", "overloaded", "timeout", "draining", "canceled").
type APIError = guard.WireError

// ErrorBody is the envelope of every non-2xx JSON response.
type ErrorBody struct {
	Error APIError `json:"error"`
}

// DSERequest is the JSON body of POST /v1/dse: the sweep, then the
// search strategy and engine options of one sweep job. Zero values
// select the same defaults as the library engine.
type DSERequest struct {
	explore.Sweep

	// Search selects the strategy: "exhaustive" (default) sweeps the
	// full cross-product, "pareto" runs the adaptive multi-objective
	// search under an evaluation budget.
	Search string `json:"search,omitempty"`
	// Budget bounds a pareto search's candidate evaluations; 0 selects
	// the engine default (a tenth of the space, floored at 24).
	Budget int `json:"budget,omitempty"`
	// Seed seeds the pareto search; equal seeds replay identical
	// searches. 0 selects the deterministic default seed.
	Seed int64 `json:"seed,omitempty"`

	// Engine options (explore.Options).
	Workers            int  `json:"workers,omitempty"`
	CandidateTimeoutMS int  `json:"candidate_timeout_ms,omitempty"`
	FailFast           bool `json:"fail_fast,omitempty"`
}

// explore converts the wire request into engine inputs, validating the
// enumerated fields.
func (r *DSERequest) explore() (explore.Params, explore.Space, explore.Constraints, explore.Objective, *explore.Options, error) {
	p, space, cons, obj, err := r.Inputs()
	if err != nil {
		return p, space, cons, obj, nil, err
	}
	search, err := explore.ParseSearchKind(r.Search)
	if err != nil {
		return p, space, cons, obj, nil, err
	}
	opts := &explore.Options{
		Workers:          r.Workers,
		CandidateTimeout: time.Duration(r.CandidateTimeoutMS) * time.Millisecond,
		FailFast:         r.FailFast,
		Search:           search,
		Budget:           r.Budget,
		Seed:             r.Seed,
	}
	return p, space, cons, obj, opts, nil
}

// DSECandidate is the wire form of one evaluated design point - the
// serialization both the service and mcpat-dse -json emit.
type DSECandidate struct {
	Cores       int    `json:"cores"`
	L2PerCoreKB int    `json:"l2_per_core_kb"`
	Fabric      string `json:"fabric"`
	ClusterSize int    `json:"cluster_size"`

	TDPW     float64 `json:"tdp_w"`
	AreaMM2  float64 `json:"area_mm2"`
	GIPS     float64 `json:"gips"`
	RuntimeW float64 `json:"runtime_w"`

	Feasible bool    `json:"feasible"`
	Reject   string  `json:"reject,omitempty"`
	Score    float64 `json:"score"`
}

func newDSECandidate(c explore.Candidate) DSECandidate {
	return DSECandidate{
		Cores:       c.Cores,
		L2PerCoreKB: c.L2PerCoreKB,
		Fabric:      c.Fabric.String(),
		ClusterSize: c.ClusterSize,
		TDPW:        c.TDP,
		AreaMM2:     c.AreaMM2,
		GIPS:        c.Perf / 1e9,
		RuntimeW:    c.RunW,
		Feasible:    c.Feasible,
		Reject:      c.Reject,
		Score:       c.Score,
	}
}

// DSEFailureJSON is the wire form of one hard per-candidate failure.
type DSEFailureJSON struct {
	Candidate DSECandidate `json:"candidate"`
	Error     APIError     `json:"error"`
}

// CacheStatsJSON is the wire form of the array-synthesis cache counters.
type CacheStatsJSON struct {
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
	Shared   uint64  `json:"shared"`
	Bypassed uint64  `json:"bypassed"`
	Entries  int     `json:"entries"`
	HitRate  float64 `json:"hit_rate"`
}

func newCacheStatsJSON(cs array.CacheStats) CacheStatsJSON {
	return CacheStatsJSON{
		Hits:     cs.Hits,
		Misses:   cs.Misses,
		Shared:   cs.Shared,
		Bypassed: cs.Bypassed,
		Entries:  cs.Entries,
		HitRate:  cs.HitRate(),
	}
}

// SubsysCacheStatsJSON is the wire form of the subsystem-synthesis cache
// counters: totals plus a per-kind breakdown (core, cache, fabric, mc,
// clock) showing which whole subsystems were reused rather than
// re-synthesized.
type SubsysCacheStatsJSON struct {
	Hits     uint64                   `json:"hits"`
	Misses   uint64                   `json:"misses"`
	Shared   uint64                   `json:"shared"`
	Bypassed uint64                   `json:"bypassed"`
	Entries  int                      `json:"entries"`
	HitRate  float64                  `json:"hit_rate"`
	Kinds    map[string]KindStatsJSON `json:"kinds"`
}

// KindStatsJSON is one component kind's share of the subsystem cache
// counters. Kinds with no activity are omitted from the wire form.
type KindStatsJSON struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Shared   uint64 `json:"shared,omitempty"`
	Bypassed uint64 `json:"bypassed,omitempty"`
}

// ArrayOptStatsJSON is the wire form of the array-optimizer enumeration
// counter: organizations evaluated during cold synthesis.
type ArrayOptStatsJSON struct {
	Evaluated uint64 `json:"evaluated"`
}

func newArrayOptStatsJSON(os array.OptimizerStats) ArrayOptStatsJSON {
	return ArrayOptStatsJSON{Evaluated: os.Evaluated}
}

func newSubsysCacheStatsJSON(cs component.CacheStats) SubsysCacheStatsJSON {
	tot := cs.Total()
	out := SubsysCacheStatsJSON{
		Hits:     tot.Hits,
		Misses:   tot.Misses,
		Shared:   tot.Shared,
		Bypassed: tot.Bypassed,
		Entries:  cs.Entries,
		HitRate:  cs.HitRate(),
		Kinds:    make(map[string]KindStatsJSON),
	}
	for i, k := range cs.Kinds {
		if k == (component.KindStats{}) {
			continue
		}
		out.Kinds[component.Kind(i).String()] = KindStatsJSON{
			Hits: k.Hits, Misses: k.Misses, Shared: k.Shared, Bypassed: k.Bypassed,
		}
	}
	return out
}

// DSEReport is the machine-readable form of a completed (or partial)
// sweep: the body of a finished job's result and of mcpat-dse -json.
type DSEReport struct {
	Objective string `json:"objective"`
	// Search names the strategy that produced the result ("exhaustive"
	// or "pareto"); SpaceSize is the full cross-product size, so
	// Evaluated/SpaceSize is the fraction of the space actually paid
	// for.
	Search     string         `json:"search"`
	SpaceSize  int            `json:"space_size"`
	Evaluated  int            `json:"evaluated"`
	Feasible   int            `json:"feasible"`
	Best       *DSECandidate  `json:"best,omitempty"`
	Candidates []DSECandidate `json:"candidates"`
	// Front is the Pareto-optimal subset of the evaluated feasible
	// candidates over {power, area, delay, ED², EDA}, in deterministic
	// axis order (filled by both search strategies).
	Front    []DSECandidate   `json:"front,omitempty"`
	Failures []DSEFailureJSON `json:"failures,omitempty"`
	Cache    CacheStatsJSON   `json:"cache"`
	// Subsys reports subsystem-level reuse during the sweep: whole
	// cores, caches, fabrics, memory controllers, and clock networks
	// served from the component cache instead of being re-synthesized.
	Subsys SubsysCacheStatsJSON `json:"subsys_cache"`
	// ArrayOpt reports the array-optimizer enumeration work the sweep's
	// cold syntheses did.
	ArrayOpt ArrayOptStatsJSON `json:"array_optimizer"`
	// Distrib reports the coordinator's shard accounting when the sweep
	// ran distributed (mcpat-dse -remote); absent on single-process
	// sweeps.
	Distrib *distrib.Stats `json:"distrib,omitempty"`
}

// NewDSEReport converts an engine result into the shared wire form.
func NewDSEReport(res *explore.Result, obj explore.Objective) *DSEReport {
	rep := &DSEReport{
		Objective:  obj.String(),
		Search:     res.Search.String(),
		SpaceSize:  res.SpaceSize,
		Evaluated:  res.Evaluated,
		Feasible:   res.Feasible,
		Candidates: make([]DSECandidate, 0, len(res.Candidates)),
		Cache:      newCacheStatsJSON(res.Cache),
		Subsys:     newSubsysCacheStatsJSON(res.Subsys),
		ArrayOpt:   newArrayOptStatsJSON(res.ArrayOpt),
	}
	for _, c := range res.Candidates {
		rep.Candidates = append(rep.Candidates, newDSECandidate(c))
	}
	for _, c := range res.Front {
		rep.Front = append(rep.Front, newDSECandidate(c))
	}
	if res.Best != nil {
		best := newDSECandidate(*res.Best)
		rep.Best = &best
	}
	for _, f := range res.Failures {
		rep.Failures = append(rep.Failures, DSEFailureJSON{
			Candidate: newDSECandidate(f.Candidate),
			Error:     *guard.Classify(f.Err),
		})
	}
	return rep
}

// JobState names one stage of the DSE job lifecycle.
type JobState string

// Job lifecycle states. Queued and running jobs are live; done, failed,
// and canceled are terminal.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// JobStatus is the wire form of one job, returned by POST /v1/dse,
// GET /v1/jobs/{id}, and DELETE /v1/jobs/{id}.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`

	// Sweep progress: candidates evaluated so far out of the enumerated
	// space. Done is monotonic; a canceled sweep stops short of Total.
	CandidatesDone  int `json:"candidates_done"`
	CandidatesTotal int `json:"candidates_total"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`

	// Front is the live Pareto-front snapshot of a running pareto
	// search, refreshed on every improving generation; it remains on a
	// terminal job (the completed front also appears in Result.Front).
	Front []DSECandidate `json:"front,omitempty"`

	// Result is present once the job is terminal and any candidates were
	// evaluated; a canceled job carries the partial sweep. Per-candidate
	// failures live inside the result - they do not fail the job.
	Result *DSEReport `json:"result,omitempty"`
	// Error is present on failed (and canceled) jobs.
	Error *APIError `json:"error,omitempty"`
}
