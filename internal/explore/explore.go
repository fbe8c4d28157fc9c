// Package explore implements chip-level design-space exploration on top
// of the power/area/timing models: it enumerates a design space (core
// count, cache capacity, fabric, clustering), synthesizes every point,
// rejects those that violate the area/TDP budget, evaluates performance
// with the bundled simulator, and ranks the survivors under a chosen
// objective. This is the "architecting as constrained optimization" use
// that McPAT was built to serve, packaged as a reusable engine.
//
// The engine is built for unattended sweeps over large, partly hostile
// spaces: candidates are evaluated by a bounded worker pool under a
// caller-supplied context, each evaluation runs behind its own panic
// recovery and optional deadline, every synthesized chip passes the
// output sanity guard, and a sweep where some candidates fail returns
// the surviving ranked results plus a per-candidate failure report
// instead of aborting.
package explore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcpat/internal/array"
	"mcpat/internal/cache"
	"mcpat/internal/chip"
	"mcpat/internal/component"
	"mcpat/internal/core"
	"mcpat/internal/guard"
	"mcpat/internal/mc"
	"mcpat/internal/perfsim"
)

// Space enumerates the design axes. Empty slices take single defaults.
type Space struct {
	Cores        []int
	L2PerCoreKB  []int
	Fabrics      []chip.InterconnectKind
	ClusterSizes []int // meaningful for Mesh fabrics only
}

// Constraints bound the feasible region.
type Constraints struct {
	MaxAreaMM2 float64 // 0 = unconstrained
	MaxTDP     float64 // W; 0 = unconstrained
}

// Objective ranks feasible candidates; higher is better.
type Objective int

const (
	// MaxThroughput maximizes aggregate instructions/s.
	MaxThroughput Objective = iota
	// MaxPerfPerWatt maximizes throughput per runtime watt.
	MaxPerfPerWatt
	// MinED2AP minimizes energy x delay^2 x area (reported as its inverse
	// so that higher is still better).
	MinED2AP
)

func (o Objective) String() string {
	switch o {
	case MaxThroughput:
		return "throughput"
	case MaxPerfPerWatt:
		return "perf/watt"
	case MinED2AP:
		return "1/ED2AP"
	}
	return fmt.Sprintf("Objective(%d)", int(o))
}

// ParseObjective maps an objective name to its constant: "throughput"
// (or "", the default), "perf/watt", or "ed2ap" (or "1/ED2AP", its
// String form).
func ParseObjective(name string) (Objective, error) {
	switch name {
	case "", "throughput":
		return MaxThroughput, nil
	case "perf/watt":
		return MaxPerfPerWatt, nil
	case "ed2ap", "1/ED2AP":
		return MinED2AP, nil
	}
	return 0, fmt.Errorf("unknown objective %q (throughput|perf/watt|ed2ap)", name)
}

// Sweep is the wire description of a sweep's inputs, shared by the
// POST /v1/dse and POST /v1/dse/shard request bodies. Zero values
// select the engine defaults.
type Sweep struct {
	// Fixed parameters (Params).
	NM      float64 `json:"nm,omitempty"`
	ClockHz float64 `json:"clock_hz,omitempty"`
	Threads int     `json:"threads,omitempty"`
	MemBW   float64 `json:"mem_bw_bytes_per_s,omitempty"`

	// Swept axes (Space). Fabrics use the fabric names
	// "none", "bus", "crossbar", "mesh", "ring".
	Cores        []int    `json:"cores,omitempty"`
	L2PerCoreKB  []int    `json:"l2_per_core_kb,omitempty"`
	Fabrics      []string `json:"fabrics,omitempty"`
	ClusterSizes []int    `json:"cluster_sizes,omitempty"`

	// Budget (Constraints); 0 = unconstrained.
	MaxAreaMM2 float64 `json:"max_area_mm2,omitempty"`
	MaxTDPW    float64 `json:"max_tdp_w,omitempty"`

	// Objective: "throughput" (default), "perf/watt", or "ed2ap".
	Objective string `json:"objective,omitempty"`
}

// NewSweep describes the given engine inputs; Inputs inverts it.
func NewSweep(p Params, space Space, cons Constraints, obj Objective) Sweep {
	s := Sweep{
		NM: p.NM, ClockHz: p.ClockHz, Threads: p.Threads, MemBW: p.MemBW,
		Cores:        space.Cores,
		L2PerCoreKB:  space.L2PerCoreKB,
		ClusterSizes: space.ClusterSizes,
		MaxAreaMM2:   cons.MaxAreaMM2,
		MaxTDPW:      cons.MaxTDP,
		Objective:    obj.String(),
	}
	for _, k := range space.Fabrics {
		s.Fabrics = append(s.Fabrics, k.String())
	}
	return s
}

// Inputs converts the sweep to engine inputs. An unknown fabric or
// objective name is an error; range checks are the engine's.
func (s *Sweep) Inputs() (Params, Space, Constraints, Objective, error) {
	p := Params{NM: s.NM, ClockHz: s.ClockHz, Threads: s.Threads, MemBW: s.MemBW}
	space := Space{Cores: s.Cores, L2PerCoreKB: s.L2PerCoreKB, ClusterSizes: s.ClusterSizes}
	cons := Constraints{MaxAreaMM2: s.MaxAreaMM2, MaxTDP: s.MaxTDPW}
	for _, name := range s.Fabrics {
		k, err := chip.ParseInterconnect(name)
		if err != nil {
			return p, space, cons, 0, err
		}
		space.Fabrics = append(space.Fabrics, k)
	}
	obj, err := ParseObjective(s.Objective)
	return p, space, cons, obj, err
}

// Params fixes everything the space does not sweep.
type Params struct {
	NM      float64
	ClockHz float64
	Threads int
	MemBW   float64 // bytes/s

	Workloads []perfsim.Workload // nil selects the SPLASH-2-like trio
}

// Candidate is one evaluated design point.
type Candidate struct {
	Cores       int
	L2PerCoreKB int
	Fabric      chip.InterconnectKind
	ClusterSize int

	TDP     float64 // W
	AreaMM2 float64
	Perf    float64 // instructions/s (mean over workloads)
	RunW    float64 // runtime power (geomean)

	Feasible bool
	Reject   string // why infeasible ("" when feasible)
	Score    float64
}

// name returns the component path of the design point, used in errors.
func (c *Candidate) name() string {
	return fmt.Sprintf("dse[%dc-%dkb-%v-cl%d]", c.Cores, c.L2PerCoreKB, c.Fabric, c.ClusterSize)
}

// Failure reports one candidate whose evaluation failed hard: a panic
// inside the models, a per-candidate deadline, or outputs that violated
// the sanity guard. Budget rejections are not failures - those stay in
// Result.Candidates as infeasible points.
type Failure struct {
	Candidate Candidate // the design point (axes populated; metrics may be partial)
	Err       error     // structured cause; classify with errors.Is and the guard kinds
}

func (f Failure) String() string {
	// The error usually already leads with the candidate path (guard
	// errors do); avoid stuttering it.
	if msg := fmt.Sprint(f.Err); strings.HasPrefix(msg, f.Candidate.name()) {
		return msg
	}
	return fmt.Sprintf("%s: %v", f.Candidate.name(), f.Err)
}

// Result is the completed exploration.
type Result struct {
	Candidates []Candidate // every evaluated point, feasible first, ranked by score
	Best       *Candidate  // nil if nothing feasible
	Evaluated  int         // points whose evaluation ran (including failures)
	Feasible   int
	Failures   []Failure // hard per-candidate failures, in proposal order

	// Front is the Pareto-optimal subset of the evaluated feasible
	// candidates over {power, area, delay, ED², EDA}, in deterministic
	// axis order. Both engines fill it: for the exhaustive sweep it is
	// the ground-truth front of the whole space, for the pareto search
	// it is the archive the generations converged to.
	Front []Candidate

	// SpaceSize is the full cross-product size of the (defaulted)
	// space; Evaluated/SpaceSize is the fraction of the space the
	// search actually paid for.
	SpaceSize int

	// Search records the strategy that produced the result.
	Search SearchKind

	// Counters reports the synthesis tiers' activity attributable to
	// this sweep: counter deltas over the sweep, with each section's
	// gauges (resident entries) read afterwards.
	Counters
}

// Counters is the engine's one counter record: the three synthesis-tier
// sections a sweep, a serving window or a library caller reads
// together. ReadCounters takes the process-wide totals; Delta turns two
// reads into the movement between them.
type Counters struct {
	Cache    array.CacheStats     // array-synthesis cache
	Subsys   component.CacheStats // subsystem-synthesis cache, per component kind
	ArrayOpt array.OptimizerStats // array-optimizer organizations evaluated
}

// ReadCounters returns the current process-wide counters.
func ReadCounters() Counters {
	return Counters{
		Cache:    array.Stats(),
		Subsys:   component.Stats(),
		ArrayOpt: array.OptStats(),
	}
}

// Delta returns the counter movement c - prev, section by section. The
// gauges (resident entries) keep c's values.
func (c Counters) Delta(prev Counters) Counters {
	return Counters{
		Cache:    c.Cache.Delta(prev.Cache),
		Subsys:   c.Subsys.Delta(prev.Subsys),
		ArrayOpt: c.ArrayOpt.Delta(prev.ArrayOpt),
	}
}

// Options tunes the parallel engine. The zero value (or nil) selects the
// documented defaults.
type Options struct {
	// Workers bounds concurrent candidate evaluations.
	// <= 0 selects runtime.GOMAXPROCS(0).
	Workers int

	// SynthWorkers changes nothing.
	//
	// Deprecated: chip assembly has one serial path; Workers is the
	// sweep's parallelism.
	SynthWorkers int

	// CandidateTimeout is the per-candidate evaluation deadline; a
	// candidate exceeding it is reported as a Failure wrapping
	// context.DeadlineExceeded. 0 disables the deadline.
	CandidateTimeout time.Duration

	// FailFast aborts the sweep at the first hard failure instead of
	// degrading gracefully. The default (false) keeps going: failed
	// candidates land in Result.Failures and the survivors are ranked.
	// A sweep distrib.Run coordinates across remote workers does not
	// apply it and always runs to the end.
	FailFast bool

	// OnProgress, when non-nil, is invoked after each candidate
	// evaluation completes (successes, rejections, and failures alike).
	// done is strictly increasing from 1 and never exceeds total, which
	// is fixed at the planned evaluation count (the space size for the
	// exhaustive sweep, the effective budget for the pareto search);
	// calls are serialized, so the callback needs no locking of its own.
	// A cancelled — or early-converged pareto — sweep stops reporting
	// before done reaches total. The callback runs on worker goroutines
	// and must not block for long.
	OnProgress func(done, total int)

	// Search selects the candidate-generation strategy: SearchExhaustive
	// (the zero value) sweeps the full cross-product, SearchPareto runs
	// the adaptive multi-objective search under an evaluation budget.
	Search SearchKind

	// Budget bounds the candidate evaluations a pareto search may
	// issue. <= 0 selects the default: a tenth of the space size,
	// floored at 24; explicit budgets are capped at the space size.
	// The exhaustive sweep ignores it.
	Budget int

	// Seed seeds the pareto search's generator. Equal seeds over equal
	// spaces replay the identical proposal sequence — and therefore the
	// identical front — at any worker count. 0 selects seed 1, so the
	// default is deterministic too.
	Seed int64

	// OnFrontUpdate, when non-nil, is invoked after each generation
	// whose evaluations changed the Pareto front, with a fresh snapshot
	// of the front and the number of candidates evaluated so far. Calls
	// are serialized on the engine goroutine. The exhaustive sweep
	// reports once at the end; the pareto search streams one update per
	// improving generation.
	OnFrontUpdate func(front []Candidate, evaluated int)

	// Shard restricts an exhaustive sweep to the contiguous index range
	// [Start, End) of the space's deterministic boustrophedon
	// enumeration (see Enumerate). This is the unit of distributed
	// work: a coordinator partitions [0, Size()) into contiguous
	// shards, each worker evaluates its range with this option, and the
	// union of the shards is exactly the full sweep. Because consecutive
	// enumeration indices differ in as few axes as possible, a
	// contiguous shard keeps the worker's subsystem cache as hot as the
	// full sweep would. Progress (OnProgress) counts within the shard.
	// Only the exhaustive search accepts a shard; combining it with
	// SearchPareto is a config error.
	Shard *ShardRange
}

// ShardRange selects the half-open enumeration index range [Start, End)
// of an exhaustive sweep (see Options.Shard).
type ShardRange struct {
	Start int
	End   int
}

// validate checks the range against the enumerated space size.
func (r *ShardRange) validate(size int) error {
	if r.Start < 0 || r.End < r.Start || r.End > size {
		return guard.Configf("dse.shard",
			"shard [%d,%d) out of range for a %d-point space", r.Start, r.End, size)
	}
	return nil
}

func (o *Options) defaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	return out
}

func (s *Space) defaults() {
	if len(s.Cores) == 0 {
		s.Cores = []int{8}
	}
	if len(s.L2PerCoreKB) == 0 {
		s.L2PerCoreKB = []int{256}
	}
	if len(s.Fabrics) == 0 {
		s.Fabrics = []chip.InterconnectKind{chip.Mesh}
	}
	if len(s.ClusterSizes) == 0 {
		s.ClusterSizes = []int{1}
	}
}

func (p *Params) defaults() error {
	if p.NM == 0 {
		p.NM = 22
	}
	if p.ClockHz == 0 {
		p.ClockHz = 2.5e9
	}
	if p.Threads == 0 {
		p.Threads = 4
	}
	if p.MemBW == 0 {
		p.MemBW = 200e9
	}
	if len(p.Workloads) == 0 {
		p.Workloads = perfsim.SPLASH2Like()
	}
	return nil
}

// Size returns the number of design points the space enumerates after
// defaulting - the total an exhaustive sweep over it will evaluate (and
// the total Options.OnProgress reports). The size is computed
// arithmetically, and a cross-product large enough to overflow int is
// rejected with guard.ErrConfig instead of being reported as a silently
// wrapped (possibly negative) count.
func (s Space) Size() (int, error) {
	sp := s
	sp.defaults()
	// Points per (cores, L2) pair: every mesh fabric carries the full
	// cluster axis, every other fabric collapses it to a single point.
	perPair := 0
	for _, f := range sp.Fabrics {
		if f == chip.Mesh {
			perPair += len(sp.ClusterSizes)
		} else {
			perPair++
		}
	}
	size := perPair
	for _, n := range []int{len(sp.Cores), len(sp.L2PerCoreKB)} {
		next := size * n
		if next/n != size || next < 0 {
			return 0, guard.Configf("dse.space",
				"design space cross-product overflows int (%d cores × %d L2 × %d fabric/cluster points)",
				len(sp.Cores), len(sp.L2PerCoreKB), perPair)
		}
		size = next
	}
	return size, nil
}

// PlannedEvaluations returns the progress total a sweep over the space
// reports under the given options: the full cross-product size for the
// exhaustive search, the effective evaluation budget for the pareto
// search. Like Size, it rejects an int-overflowing cross-product with
// guard.ErrConfig.
func PlannedEvaluations(space Space, opts *Options) (int, error) {
	size, err := space.Size()
	if err != nil {
		return 0, err
	}
	o := opts.defaults()
	if o.Search == SearchPareto {
		return effectiveBudget(o.Budget, size), nil
	}
	if o.Shard != nil {
		if err := o.Shard.validate(size); err != nil {
			return 0, err
		}
		return o.Shard.End - o.Shard.Start, nil
	}
	return size, nil
}

// defaultMinBudget floors the default pareto budget so tiny spaces
// still get a seed sample plus a few mutation generations.
const defaultMinBudget = 24

// effectiveBudget resolves the pareto evaluation budget: an explicit
// positive budget is honored (capped at the space size, since the
// generator never revisits a point); otherwise the default is a tenth
// of the space, floored at defaultMinBudget.
func effectiveBudget(budget, size int) int {
	if budget <= 0 {
		budget = size / 10
		if budget < defaultMinBudget {
			budget = defaultMinBudget
		}
	}
	if budget > size {
		budget = size
	}
	return budget
}

// Enumerate lists every design point of the (defaulted) space in the
// engine's deterministic boustrophedon order — the order Size() counts
// and ShardRange indexes. The distributed coordinator uses it to map
// evaluated candidates back to their global enumeration indices so
// per-shard results can be merged into exactly the ordering a
// single-process sweep would produce.
func Enumerate(space Space) []Candidate {
	space.defaults()
	return enumerate(space)
}

// enumerate lists every design point of the space in a deterministic
// boustrophedon (Gray-code-style) order: each inner axis reverses
// direction whenever its outer axis advances, so consecutive candidates
// differ in as few axes as possible - usually exactly one. Sweep result
// ordering derives from this order, so runs are reproducible regardless
// of worker count; the snake order additionally gives plain exhaustive
// sweeps the delta shape the subsystem cache serves best, because a
// one-axis step leaves every other subsystem's synthesis a pure cache
// hit.
func enumerate(space Space) []Candidate {
	var specs []Candidate
	pick := func(vals []int, i int, rev bool) int {
		if rev {
			return vals[len(vals)-1-i]
		}
		return vals[i]
	}
	l2Rev, fabRev, clRev := false, false, false
	for _, cores := range space.Cores {
		for li := range space.L2PerCoreKB {
			l2kb := pick(space.L2PerCoreKB, li, l2Rev)
			for fi := range space.Fabrics {
				fj := fi
				if fabRev {
					fj = len(space.Fabrics) - 1 - fi
				}
				fab := space.Fabrics[fj]
				clusterSizes := space.ClusterSizes
				if fab != chip.Mesh {
					clusterSizes = []int{1}
				}
				for ci := range clusterSizes {
					specs = append(specs, Candidate{
						Cores: cores, L2PerCoreKB: l2kb, Fabric: fab,
						ClusterSize: pick(clusterSizes, ci, clRev),
					})
				}
				if fab == chip.Mesh {
					// The next mesh run resumes from this end of the
					// cluster axis.
					clRev = !clRev
				}
			}
			fabRev = !fabRev
		}
		l2Rev = !l2Rev
	}
	return specs
}

// buildConfig constructs the chip for one design point.
func buildConfig(p Params, c Candidate) (chip.Config, error) {
	banks := c.Cores
	cfg := chip.Config{
		Name:     chipName(c),
		NM:       p.NM,
		ClockHz:  p.ClockHz,
		NumCores: c.Cores,
		Core: core.Config{
			Threads: p.Threads,
			ICache:  core.CacheParams{Bytes: 16 << 10, BlockBytes: 32, Assoc: 4},
			DCache:  core.CacheParams{Bytes: 8 << 10, BlockBytes: 16, Assoc: 4},
			IntALUs: 1, MulDivs: 1, FPUs: 1,
		},
		MC: &mc.Config{Channels: 4, PeakBandwidth: p.MemBW, LVDS: true},
	}
	switch c.Fabric {
	case chip.Mesh:
		if c.ClusterSize <= 0 || c.Cores%c.ClusterSize != 0 {
			return cfg, fmt.Errorf("cluster %d does not divide %d cores", c.ClusterSize, c.Cores)
		}
		clusters := c.Cores / c.ClusterSize
		mx, my := chip.MeshDims(clusters)
		cfg.NoC = chip.NoCSpec{
			Kind: chip.Mesh, FlitBits: 128, MeshX: mx, MeshY: my,
			VirtualChannels: 2, BuffersPerVC: 4, ClusterSize: c.ClusterSize,
		}
		banks = clusters
	case chip.Ring, chip.Bus, chip.Crossbar:
		cfg.NoC = chip.NoCSpec{Kind: c.Fabric, FlitBits: 128}
	}
	cfg.L2 = &cache.Config{
		Name:  "L2",
		Bytes: c.Cores * c.L2PerCoreKB << 10, BlockBytes: 64, Assoc: 8,
		Banks: banks, Directory: true, Sharers: c.Cores,
	}
	return cfg, nil
}

// chipName names a design point's chip, dse-<cores>c-<kb>kb-<fabric>-cl<n>,
// as fmt's "dse-%dc-%dkb-%v-cl%d" would, without boxing four arguments.
func chipName(c Candidate) string {
	var buf [48]byte
	b := append(buf[:0], "dse-"...)
	b = strconv.AppendInt(b, int64(c.Cores), 10)
	b = append(b, "c-"...)
	b = strconv.AppendInt(b, int64(c.L2PerCoreKB), 10)
	b = append(b, "kb-"...)
	b = append(b, c.Fabric.String()...)
	b = append(b, "-cl"...)
	b = strconv.AppendInt(b, int64(c.ClusterSize), 10)
	return string(b)
}

// Search runs the exhaustive exploration sequentially-equivalent on the
// background context with default options. Kept as the simple entry
// point; SearchContext is the production engine.
func Search(p Params, space Space, cons Constraints, obj Objective) (*Result, error) {
	return SearchContext(context.Background(), p, space, cons, obj, nil)
}

// SearchContext runs the exploration on a bounded worker pool under the
// caller's context.
//
// Strategy: Options.Search picks the candidate generator. The default
// exhaustive sweep proposes the whole cross-product in one batch; the
// pareto search proposes a seeded sample and then generations of
// one-axis mutations of the current front, bounded by Options.Budget.
// Both run through the same worker pool, progress, failure, and
// cancellation plumbing, and both leave the evaluated Pareto front in
// Result.Front.
//
// Fault tolerance: each candidate is evaluated behind its own panic
// recovery and (optional) deadline, so one poisoned design point cannot
// abort the sweep - it is reported in Result.Failures and the surviving
// candidates are ranked as usual (unless Options.FailFast is set, in
// which case the first hard failure is returned as the error alongside
// the partial result).
//
// Cancellation: when ctx is cancelled mid-sweep the engine stops
// promptly, abandons in-flight evaluations, and returns the partial
// result - including the partial front - together with ctx.Err().
// Result ordering is deterministic for a given space (and, for the
// pareto search, seed) regardless of worker count or completion order.
func SearchContext(ctx context.Context, p Params, space Space, cons Constraints, obj Objective, opts *Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := p.defaults(); err != nil {
		return nil, err
	}
	space.defaults()
	o := opts.defaults()

	size, err := space.Size()
	if err != nil {
		return nil, err
	}
	front := NewParetoFront(0)
	var gen Generator
	planned := size
	switch o.Search {
	case SearchExhaustive:
		g := newExhaustiveGenerator(space)
		if o.Shard != nil {
			if err := o.Shard.validate(size); err != nil {
				return nil, err
			}
			g.specs = g.specs[o.Shard.Start:o.Shard.End]
			planned = o.Shard.End - o.Shard.Start
		}
		gen = g
	case SearchPareto:
		if o.Shard != nil {
			return nil, guard.Configf("dse.shard",
				"sharding applies to exhaustive sweeps only, not the %v search", o.Search)
		}
		planned = effectiveBudget(o.Budget, size)
		seed := o.Seed
		if seed == 0 {
			seed = 1
		}
		gen = newAdaptiveGenerator(space, front, planned, seed)
	default:
		return nil, guard.Configf("dse", "unknown search kind %d", int(o.Search))
	}

	before := ReadCounters()

	// A derived context lets FailFast stop the pool without conflating
	// that with caller cancellation.
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	eng := &engine{
		ctx: ctx, cancel: cancel,
		o: &o, p: p, cons: cons, obj: obj,
		total: planned,
	}
	defer eng.stop()

	var outs []outcome
	notified := front.Version()
	for parent.Err() == nil && ctx.Err() == nil {
		batch := gen.Propose()
		if len(batch) == 0 {
			break
		}
		bouts := eng.evalBatch(batch)
		evaluated := make([]Candidate, 0, len(bouts))
		for i := range bouts {
			if !bouts[i].ran || bouts[i].err != nil {
				continue
			}
			evaluated = append(evaluated, bouts[i].cand)
			front.Add(bouts[i].cand)
		}
		outs = append(outs, bouts...)
		gen.Observe(evaluated)
		if o.OnFrontUpdate != nil && front.Version() != notified {
			notified = front.Version()
			o.OnFrontUpdate(front.Members(), eng.done())
		}
		if o.FailFast && eng.failure() != nil {
			break
		}
	}
	// The generator may trim the archive as it concludes (the adaptive
	// search withholds unverified members); stream that final state too,
	// so an observer's last snapshot always matches Result.Front.
	if o.OnFrontUpdate != nil && front.Version() != notified {
		o.OnFrontUpdate(front.Members(), eng.done())
	}

	res := &Result{
		Search:    o.Search,
		SpaceSize: size,
		Front:     front.Members(),
		Counters:  ReadCounters().Delta(before),
	}
	for i := range outs {
		if !outs[i].ran {
			continue
		}
		res.Evaluated++
		if outs[i].err != nil {
			res.Failures = append(res.Failures, Failure{Candidate: outs[i].cand, Err: outs[i].err})
			continue
		}
		res.Candidates = append(res.Candidates, outs[i].cand)
	}
	res.Rank()
	if err := parent.Err(); err != nil {
		return res, err
	}
	if o.FailFast {
		if err := eng.failure(); err != nil {
			return res, err
		}
	}
	return res, nil
}

// Rank counts r's feasible candidates and orders them feasible first by
// descending score. The sort is stable, so ties keep the order the
// candidates were added in. Best becomes the top candidate when it is
// feasible. Serial and distributed sweeps both rank through Rank, which
// keeps their results identical.
func (r *Result) Rank() {
	r.Feasible = 0
	for i := range r.Candidates {
		if r.Candidates[i].Feasible {
			r.Feasible++
		}
	}
	sort.SliceStable(r.Candidates, func(i, j int) bool {
		a, b := r.Candidates[i], r.Candidates[j]
		if a.Feasible != b.Feasible {
			return a.Feasible
		}
		return a.Score > b.Score
	})
	r.Best = nil
	if len(r.Candidates) > 0 && r.Candidates[0].Feasible {
		r.Best = &r.Candidates[0]
	}
}

// outcome is one candidate's evaluation result; ran is false when
// cancellation drained the job before it started.
type outcome struct {
	cand Candidate
	err  error
	ran  bool
}

// engine carries the per-sweep evaluation state shared across batches:
// the derived context, each worker's evaluator, progress accounting
// against the planned total, and the first hard failure for FailFast.
type engine struct {
	ctx    context.Context
	cancel context.CancelFunc
	o      *Options
	p      Params
	cons   Constraints
	obj    Objective
	total  int

	// evals holds worker w's evaluator at index w, nil until the worker
	// first needs one or after it abandoned one. It grows to the widest
	// batch's worker count. Only worker w touches its slot, and batches
	// run one after another, so the evaluators and their slabs carry
	// over from batch to batch.
	evals []*evaluator

	mu           sync.Mutex
	progressDone int
	firstFailure error
}

func (e *engine) done() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.progressDone
}

func (e *engine) failure() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.firstFailure
}

// reportProgress serializes OnProgress callbacks under the engine
// mutex, preserving the strictly-increasing contract across batches and
// workers.
func (e *engine) reportProgress() {
	e.mu.Lock()
	e.progressDone++
	if e.o.OnProgress != nil {
		e.o.OnProgress(e.progressDone, e.total)
	}
	e.mu.Unlock()
}

// evalBatch evaluates one proposed batch on a bounded worker pool and
// returns the outcomes in proposal order. Cancellation (caller or
// FailFast) stops the feed promptly; drained jobs come back with
// ran == false.
func (e *engine) evalBatch(specs []Candidate) []outcome {
	outs := make([]outcome, len(specs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	workers := e.o.Workers
	if workers > len(specs) {
		workers = len(specs)
	}
	if workers < 1 {
		workers = 1
	}
	for len(e.evals) < workers {
		e.evals = append(e.evals, nil)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				if e.ctx.Err() != nil {
					continue // drain without evaluating
				}
				outs[idx] = e.evalCandidate(w, specs[idx])
				e.reportProgress()
				if err := outs[idx].err; err != nil && e.o.FailFast {
					e.mu.Lock()
					if e.firstFailure == nil {
						e.firstFailure = err
					}
					e.mu.Unlock()
					e.cancel()
				}
			}
		}()
	}
feed:
	for i := range specs {
		select {
		case jobs <- i:
		case <-e.ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	return outs
}

// evalCandidate evaluates one design point on worker w's evaluator,
// under the sweep context and, when CandidateTimeout > 0, its own
// deadline. The models run on the evaluator's goroutine, so cancellation
// and deadlines take effect promptly even while they are busy: the
// worker then abandons the evaluator, which finishes its candidate into
// its own reply buffer and exits, and the worker's next candidate starts
// a fresh one. The late result is discarded.
func (e *engine) evalCandidate(w int, cand Candidate) outcome {
	cctx := e.ctx
	if timeout := e.o.CandidateTimeout; timeout > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(e.ctx, timeout)
		defer cancel()
		// A deadline already past fails the candidate here: raced
		// against a finished evaluation, the select below would pick
		// either outcome at random.
		if err := cctx.Err(); err != nil {
			return outcome{cand: cand, err: guard.At(err, cand.name()), ran: true}
		}
	}
	ev := e.evals[w]
	if ev == nil {
		ev = newEvaluator(e.p, e.cons, e.obj)
		e.evals[w] = ev
	}
	ev.in <- cand
	select {
	case out := <-ev.out:
		return out
	case <-cctx.Done():
		close(ev.in)
		e.evals[w] = nil
		return outcome{cand: cand, err: guard.At(cctx.Err(), cand.name()), ran: true}
	}
}

// stop ends every evaluator the workers still hold and waits for each
// to exit; called once the sweep is over. An abandoned evaluator exits
// on its own once its candidate finishes.
func (e *engine) stop() {
	for _, ev := range e.evals {
		if ev != nil {
			close(ev.in)
			<-ev.done
		}
	}
}

// evaluator is one worker's long-lived evaluation goroutine. It reads
// candidates from in until in is closed and answers each on out, whose
// one-slot buffer lets an abandoned evaluator finish its last candidate
// without a reader. It owns one score slab that every candidate's chip
// compiles its report into and scores into: evaluate keeps only scalars
// from the scores.
type evaluator struct {
	in   chan Candidate
	out  chan outcome
	done chan struct{} // closed when the goroutine exits
}

func newEvaluator(p Params, cons Constraints, obj Objective) *evaluator {
	ev := &evaluator{in: make(chan Candidate), out: make(chan outcome, 1), done: make(chan struct{})}
	go func() {
		defer close(ev.done)
		var slab chip.Slab
		// One variable for the evaluator's life: its address escapes
		// through evaluate, so a per-iteration one would be a heap
		// allocation per candidate.
		var c Candidate
		for c = range ev.in {
			err := evaluateGuarded(p, cons, obj, &c, &slab)
			ev.out <- outcome{cand: c, err: err, ran: true}
		}
	}()
	return ev
}

// evaluateGuarded runs evaluate behind the panic-recovery boundary. A
// recovered panic is named after the candidate only once it happened:
// formatting the name up front would cost every candidate.
func evaluateGuarded(p Params, cons Constraints, obj Objective, c *Candidate, slab *chip.Slab) (err error) {
	finished := false
	defer func() {
		if !finished {
			err = guard.At(err, c.name())
		}
	}()
	defer guard.Recover(&err, "")
	err = evaluate(p, cons, obj, c, slab)
	finished = true
	return err
}

// testEvalHook, when set, runs at the start of every candidate
// evaluation inside the recovery boundary. Tests use it to poison or
// stall specific candidates. Atomic because an abandoned (timed-out or
// cancelled) evaluator may still reach it after a test has swapped the
// hook out.
var testEvalHook atomic.Pointer[func(c *Candidate)]

// evaluate synthesizes and scores one design point into slab. A nil
// return with cand.Feasible == false means the point was legitimately
// rejected (malformed combination or budget violation); a non-nil error
// is a hard failure of the models themselves.
func evaluate(p Params, cons Constraints, obj Objective, cand *Candidate, slab *chip.Slab) error {
	if hook := testEvalHook.Load(); hook != nil {
		(*hook)(cand)
	}
	cfg, err := buildConfig(p, *cand)
	if err != nil {
		cand.Reject = err.Error()
		return nil // malformed point: infeasible, not fatal
	}
	proc, err := chip.New(cfg)
	if err != nil {
		// Config/infeasibility errors are expected rejections of the
		// point; internal faults and domain violations are not.
		if errors.Is(err, guard.ErrInternal) || errors.Is(err, guard.ErrModelDomain) {
			return guard.At(err, cand.name())
		}
		cand.Reject = err.Error()
		return nil
	}
	// Processor.Check's two steps, on the TDP rows in the slab.
	tdp, err := proc.Score(nil, slab)
	if err != nil {
		return guard.At(err, cand.name())
	}
	if dErr := guard.CheckScore(tdp, nil).Err(); dErr != nil {
		// The synthesized chip's numbers are not physical: fail loudly
		// instead of ranking garbage.
		return guard.At(dErr, cand.name())
	}
	cand.TDP = tdp.Peak(0)
	cand.AreaMM2 = tdp.Area(0) * 1e6

	if cons.MaxAreaMM2 > 0 && cand.AreaMM2 > cons.MaxAreaMM2 {
		cand.Reject = fmt.Sprintf("area %.0f mm2 > budget %.0f", cand.AreaMM2, cons.MaxAreaMM2)
		return nil
	}
	if cons.MaxTDP > 0 && cand.TDP > cons.MaxTDP {
		cand.Reject = fmt.Sprintf("TDP %.0f W > budget %.0f", cand.TDP, cons.MaxTDP)
		return nil
	}

	// Performance + runtime power over the workloads.
	dim, _ := chip.MeshDims(maxInt(cand.Cores/maxInt(cand.ClusterSize, 1), 1))
	m := perfsim.Machine{
		Cores: cand.Cores, ThreadsPerCore: p.Threads, IssueWidth: 1,
		ClockHz:      p.ClockHz,
		ClusterSize:  cand.ClusterSize,
		L2Latency:    math.Ceil(proc.L2.AccessTime()*p.ClockHz) + 4,
		FabricHopLat: 4, MemLatency: 60e-9 * p.ClockHz,
		MeshDim: dim, MemBandwidth: p.MemBW, BusBytes: 16,
	}
	var sumPerf, logW float64
	var stats chip.Stats
	for _, w := range p.Workloads {
		sim, err := perfsim.Run(m, w)
		if err != nil {
			return guard.Wrap(guard.ErrInternal, cand.name(), err)
		}
		stats = chip.Stats{
			CoreRun:    sim.CoreActivity,
			L2Reads:    sim.L2ReadsSec,
			L2Writes:   sim.L2WritesSec,
			NoCFlits:   sim.FabricFlits,
			MCAccesses: sim.MemAccessesS,
		}
		run, err := proc.Score(&stats, slab)
		if err != nil {
			return guard.At(err, cand.name())
		}
		sumPerf += sim.Throughput
		logW += math.Log(run.Runtime(0))
	}
	n := float64(len(p.Workloads))
	cand.Perf = sumPerf / n
	cand.RunW = math.Exp(logW / n)
	if !isFinitePositive(cand.Perf) || !isFinitePositive(cand.RunW) {
		return guard.Domainf(cand.name(),
			"non-physical evaluation: perf=%g runW=%g", cand.Perf, cand.RunW)
	}
	cand.Feasible = true

	d := 1 / cand.Perf
	e := cand.RunW * d // energy per instruction
	switch obj {
	case MaxThroughput:
		cand.Score = cand.Perf
	case MaxPerfPerWatt:
		cand.Score = cand.Perf / cand.RunW
	case MinED2AP:
		cand.Score = 1 / (e * d * d * cand.AreaMM2)
	}
	return nil
}

func isFinitePositive(v float64) bool {
	return v > 0 && !math.IsInf(v, 0)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
