package distrib

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"mcpat/internal/explore"
	"mcpat/internal/guard"
)

// Coordinator tuning. One value of each is in use, so they are
// constants rather than options.
const (
	// minShard is the smallest range work-stealing will create; ranges
	// at or below 2*minShard dispatch whole.
	minShard = 8
	// maxRetries bounds re-dispatches of a single range after worker
	// failures before the sweep aborts. It is also the ejection
	// threshold: a worker failing maxRetries consecutive dispatches is
	// retired from the pool (unless it is the last one), so one dead
	// host cannot exhaust a range budget the live workers would absorb.
	maxRetries = 3
	// backoffBase and maxBackoff shape the jittered exponential delay a
	// worker sits out after consecutive failures.
	backoffBase = 100 * time.Millisecond
	maxBackoff  = 2 * time.Second
)

// Options configures a sweep: the engine's options, plus the remote
// workers an exhaustive sweep is sharded across. The zero value runs
// the single-process engine.
//
// On a coordinated sweep (an exhaustive one with remotes), Workers
// bounds candidate-level parallelism inside every worker's shard,
// CandidateTimeout is forwarded to every worker, OnProgress receives
// monotonic cross-shard progress, and OnFrontUpdate fires once with the
// merged front. FailFast is not applied there.
type Options struct {
	explore.Options

	// Remotes lists worker base URLs (mcpatd -worker instances);
	// "host:port" and "http://host:port" are both accepted.
	Remotes []string

	// Metrics, when non-nil, accumulates coordinator counters; pass a
	// long-lived instance to aggregate across sweeps (the daemon wires
	// its /metrics instance here).
	Metrics *Metrics

	// Logf, when non-nil, receives coordinator diagnostics (dispatches,
	// failures, retries).
	Logf func(format string, args ...any)
}

func (o *Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// permanentError marks a failure that re-dispatching cannot fix (the
// sweep description itself is bad); the coordinator aborts instead of
// retrying.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

func isPermanent(err error) bool {
	var pe *permanentError
	if errors.As(err, &pe) {
		return true
	}
	return errors.Is(err, guard.ErrConfig)
}

// worker is one evaluation endpoint the coordinator can dispatch to.
type worker interface {
	name() string
	run(ctx context.Context, spec ShardSpec, onProgress func(done, total int)) (*ShardResult, error)
}

// localWorker evaluates shards in-process through the engine.
type localWorker struct{}

func (localWorker) name() string { return "local" }

func (localWorker) run(ctx context.Context, spec ShardSpec, onProgress func(done, total int)) (*ShardResult, error) {
	res, err := EvalShard(ctx, spec, onProgress)
	if err != nil && errors.Is(err, guard.ErrConfig) {
		return nil, &permanentError{err}
	}
	return res, err
}

// httpWorker evaluates shards on a remote mcpatd.
type httpWorker struct{ client *Client }

func (w httpWorker) name() string { return w.client.Base }

func (w httpWorker) run(ctx context.Context, spec ShardSpec, onProgress func(done, total int)) (*ShardResult, error) {
	res, err := w.client.EvalShard(ctx, spec, onProgress)
	if err != nil && isPermanent(err) {
		return nil, &permanentError{err}
	}
	return res, err
}

// rng is a contiguous half-open range of enumeration indices, the unit
// of dispatch.
type rng struct {
	start, end int
	attempts   int
}

func (r rng) len() int { return r.end - r.start }

// coordinator owns the mutable sweep state shared by worker loops.
type coordinator struct {
	mu       sync.Mutex
	cond     *sync.Cond
	pending  []rng
	inflight int
	active   int  // worker loops still in the pool
	done     bool // all ranges completed
	fatal    error
	results  []*ShardResult

	opts     *Options
	progress *progressTracker
	cancel   context.CancelFunc
}

// take hands the calling worker its next range, blocking while other
// workers still hold in-flight ranges that might fail and requeue. A
// worker whose frontier continues (lastEnd == a pending range's start)
// prefers that range for cache locality; otherwise it takes — steals —
// the largest pending range. Ranges longer than 2*minShard are halved
// on take: the worker gets the leading half and the tail returns to
// pending for others to steal.
func (c *coordinator) take(lastEnd int) (r rng, stolen, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.fatal != nil || c.done {
			return rng{}, false, false
		}
		if len(c.pending) > 0 {
			break
		}
		if c.inflight == 0 {
			c.done = true
			c.cond.Broadcast()
			return rng{}, false, false
		}
		c.cond.Wait()
	}
	pick := 0
	continuation := false
	for i := range c.pending {
		if c.pending[i].start == lastEnd {
			pick, continuation = i, true
			break
		}
		if c.pending[i].len() > c.pending[pick].len() {
			pick = i
		}
	}
	r = c.pending[pick]
	c.pending = append(c.pending[:pick], c.pending[pick+1:]...)
	if r.len() > 2*minShard {
		half := (r.len() + 1) / 2
		tail := rng{start: r.start + half, end: r.end, attempts: r.attempts}
		r.end = r.start + half
		c.pending = append(c.pending, tail)
		c.cond.Broadcast()
	}
	c.inflight++
	stolen = !continuation && lastEnd >= 0
	c.opts.Metrics.dispatch(stolen)
	return r, stolen, true
}

func (c *coordinator) complete(r rng, res *ShardResult) {
	c.mu.Lock()
	c.results = append(c.results, res)
	c.inflight--
	c.cond.Broadcast()
	c.mu.Unlock()
	c.progress.complete(r.start, r.end)
}

// fail requeues a range after a worker failure, aborting the sweep when
// the range's retry budget is exhausted or the failure is permanent.
func (c *coordinator) fail(r rng, who string, err error) {
	c.progress.requeue(r.start, r.end)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fatal != nil {
		return
	}
	r.attempts++
	if isPermanent(err) {
		c.fatal = err
	} else if r.attempts > maxRetries {
		c.fatal = fmt.Errorf("distrib: shard [%d,%d) failed %d times, giving up: %w",
			r.start, r.end, r.attempts, err)
	} else {
		c.opts.Metrics.retry()
		c.opts.logf("distrib: shard [%d,%d) failed on %s (attempt %d/%d), requeued: %v",
			r.start, r.end, who, r.attempts, maxRetries+1, err)
		c.pending = append(c.pending, r)
	}
	c.inflight--
	if c.fatal != nil && c.cancel != nil {
		c.cancel()
	}
	c.cond.Broadcast()
}

// retire removes one worker loop from the pool — a worker failing every
// dispatch (a host that died and never came back) must stop pulling
// ranges, or it alone can exhaust a range's retry budget that the live
// workers would have absorbed. The last active worker never retires:
// it is the availability backstop, and the per-range budget remains the
// abort path when failures are systemic rather than one bad host.
func (c *coordinator) retire() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.active <= 1 {
		return false
	}
	c.active--
	return true
}

// abort wakes every worker when the caller's context ends.
func (c *coordinator) abort() {
	c.mu.Lock()
	c.done = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Run is the one sweep entry point. An exhaustive sweep with remotes
// is coordinated across the built-in local worker and opts.Remotes,
// and returns a result bit-identical to explore.SearchContext over the
// same inputs. Every other sweep (no remotes, a pareto search, or a
// caller-set Shard) is explore.SearchContext with opts.Options.
// Cancellation returns the merged partial result together with
// ctx.Err(), matching the serial engine.
func Run(ctx context.Context, p explore.Params, space explore.Space, cons explore.Constraints, obj explore.Objective, opts *Options) (*explore.Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	if len(opts.Remotes) == 0 || opts.Search != explore.SearchExhaustive || opts.Shard != nil {
		return explore.SearchContext(ctx, p, space, cons, obj, &opts.Options)
	}
	return run(ctx, p, space, cons, obj, opts, true)
}

// run coordinates an exhaustive sweep across opts.Remotes, plus the
// built-in local worker when withLocal is set.
func run(ctx context.Context, p explore.Params, space explore.Space, cons explore.Constraints, obj explore.Objective, opts *Options, withLocal bool) (*explore.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}

	var workers []worker
	if withLocal {
		workers = append(workers, localWorker{})
	}
	for _, remote := range opts.Remotes {
		base := NormalizeBase(remote)
		if base == "" {
			continue
		}
		workers = append(workers, httpWorker{client: &Client{Base: base}})
	}

	specs := explore.Enumerate(space)
	size := len(specs)

	before := explore.ReadCounters()

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	c := &coordinator{
		opts:     opts,
		progress: newProgressTracker(size, opts.OnProgress),
		cancel:   cancel,
	}
	c.cond = sync.NewCond(&c.mu)
	c.active = len(workers)

	// Initial partition: one contiguous slice per worker, each at least
	// minShard long (fewer slices when the space is small), preserving
	// the enumeration's single-axis delta-locality inside every slice.
	nParts := len(workers)
	if max := (size + minShard - 1) / minShard; nParts > max {
		nParts = max
	}
	if nParts < 1 {
		nParts = 1
	}
	for i := 0; i < nParts; i++ {
		start := i * size / nParts
		end := (i + 1) * size / nParts
		if start < end {
			c.pending = append(c.pending, rng{start: start, end: end})
		}
	}

	// Wake blocked workers if the caller gives up.
	stopWatch := make(chan struct{})
	go func() {
		select {
		case <-runCtx.Done():
			c.abort()
		case <-stopWatch:
		}
	}()

	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w worker) {
			defer wg.Done()
			lastEnd := -1
			consecFails := 0
			for {
				if consecFails > 0 {
					d := backoffBase << (consecFails - 1)
					if d > maxBackoff || d <= 0 {
						d = maxBackoff
					}
					d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
					t := time.NewTimer(d)
					select {
					case <-runCtx.Done():
						t.Stop()
						return
					case <-t.C:
					}
				}
				r, stolen, ok := c.take(lastEnd)
				if !ok {
					return
				}
				spec := ShardSpec{
					Params: p, Space: space, Cons: cons, Obj: obj,
					Start: r.start, End: r.end,
					Workers:          opts.Workers,
					CandidateTimeout: opts.CandidateTimeout,
				}
				began := time.Now()
				res, err := w.run(runCtx, spec, func(done, total int) {
					c.progress.update(r.start, r.end, done)
				})
				if err != nil {
					if runCtx.Err() != nil {
						c.fail(r, w.name(), runCtx.Err())
						return
					}
					consecFails++
					lastEnd = -1
					c.fail(r, w.name(), err)
					if consecFails >= maxRetries && c.retire() {
						opts.logf("distrib: ejecting %s after %d consecutive failures", w.name(), consecFails)
						return
					}
					continue
				}
				consecFails = 0
				opts.Metrics.workerDone(w.name(), len(res.Candidates), len(res.Failures), time.Since(began))
				if stolen {
					opts.logf("distrib: %s stole shard [%d,%d)", w.name(), r.start, r.end)
				}
				c.complete(r, res)
				lastEnd = r.end
			}
		}(w)
	}
	wg.Wait()
	close(stopWatch)

	c.mu.Lock()
	fatal := c.fatal
	results := c.results
	c.mu.Unlock()

	if fatal != nil && ctx.Err() == nil {
		return nil, fatal
	}

	res := mergeOutcomes(size, results)
	res.Counters = explore.ReadCounters().Delta(before)
	if opts.OnFrontUpdate != nil && len(res.Front) > 0 {
		opts.OnFrontUpdate(append([]explore.Candidate(nil), res.Front...), res.Evaluated)
	}
	return res, ctx.Err()
}

// mergeOutcomes reduces per-shard results to the exact serial Result:
// candidates restore enumeration (proposal) order before the engine's
// own ranking, explore.Result.Rank, so ordering and tie-breaks are
// bit-identical, and the front replays the full candidate list in
// proposal order, which is exactly what the serial engine did.
func mergeOutcomes(size int, shards []*ShardResult) *explore.Result {
	res := &explore.Result{
		Search:    explore.SearchExhaustive,
		SpaceSize: size,
	}

	type idxCand struct {
		idx  int
		cand explore.Candidate
	}
	var cands []idxCand
	type idxFail struct {
		idx  int
		fail explore.Failure
	}
	var fails []idxFail
	for _, s := range shards {
		res.Evaluated += s.Evaluated
		for i := range s.Candidates {
			c := &s.Candidates[i]
			cands = append(cands, idxCand{c.Index, fromWire(c)})
		}
		for i := range s.Failures {
			f := s.Failures[i]
			e := f.Error
			fails = append(fails, idxFail{f.Index, explore.Failure{
				Candidate: fromWire(&f.Candidate),
				Err:       &e,
			}})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].idx < cands[j].idx })
	sort.Slice(fails, func(i, j int) bool { return fails[i].idx < fails[j].idx })
	for i := range fails {
		res.Failures = append(res.Failures, fails[i].fail)
	}

	front := explore.NewParetoFront(0)
	for i := range cands {
		front.Add(cands[i].cand)
	}
	res.Front = front.Members()

	for i := range cands {
		res.Candidates = append(res.Candidates, cands[i].cand)
	}
	res.Rank()
	return res
}
