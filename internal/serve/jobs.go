package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"mcpat/internal/explore"
	"mcpat/internal/guard"
)

// errQueueFull is returned by submit when the bounded job queue cannot
// take another sweep; the handler sheds the request with 429.
var errQueueFull = errors.New("job queue full")

// job is the server-side state of one DSE sweep. The mutex guards
// status; cancel is written once before the job becomes visible.
type job struct {
	mu     sync.Mutex
	status JobStatus

	// cancel aborts the sweep; set while queued (a no-op func) and
	// replaced with the real context cancel when the job starts.
	cancel context.CancelFunc
	// cancelRequested distinguishes a user DELETE (or server drain) from
	// other context errors.
	cancelRequested bool

	params explore.Params
	space  explore.Space
	cons   explore.Constraints
	obj    explore.Objective
	opts   explore.Options
}

// snapshot returns a copy of the job's wire status.
func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// jobStore owns the async DSE subsystem: a bounded queue feeding a
// fixed worker pool, the id-addressable job table, and terminal-job
// retention. All sweeps run under baseCtx, so canceling it (server
// drain) aborts every queued and running job.
type jobStore struct {
	baseCtx context.Context
	metrics *metrics

	// journal, when non-nil, makes accepted jobs durable across process
	// restarts (see journal.go). All appends go through it.
	journal *journal

	queue chan *job
	wg    sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for terminal-job eviction
	running  int
	retained int // max terminal jobs kept before eviction

	// runSweep performs the actual exploration (set by New); tests
	// substitute a stub to script job behavior (stalls, failures)
	// without model work.
	runSweep func(ctx context.Context, j *job) (*explore.Result, error)
}

func newJobStore(baseCtx context.Context, workers, queueDepth, retention int, m *metrics, jl *journal) *jobStore {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < 1 {
		queueDepth = 1
	}
	if retention < 1 {
		retention = 64
	}
	s := &jobStore{
		baseCtx:  baseCtx,
		metrics:  m,
		journal:  jl,
		queue:    make(chan *job, queueDepth),
		jobs:     make(map[string]*job),
		retained: retention,
	}
	m.queueDepth = func() int { return len(s.queue) }
	m.jobsRunning = func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.running
	}
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unrecoverable; ids must stay unique.
		panic(fmt.Sprintf("serve: job id entropy unavailable: %v", err))
	}
	return "job-" + hex.EncodeToString(b[:])
}

// submit registers a new sweep and enqueues it. It never blocks: a full
// queue returns errQueueFull so the handler can shed load.
func (s *jobStore) submit(req *DSERequest) (JobStatus, error) {
	p, space, cons, obj, opts, err := req.explore()
	if err != nil {
		return JobStatus{}, err
	}
	total, err := explore.PlannedEvaluations(space, opts)
	if err != nil {
		return JobStatus{}, err
	}
	j := &job{
		status: JobStatus{
			ID:              newJobID(),
			State:           JobQueued,
			CandidatesTotal: total,
			SubmittedAt:     time.Now(),
		},
		cancel: func() {},
		params: p, space: space, cons: cons, obj: obj, opts: *opts,
	}

	s.mu.Lock()
	s.jobs[j.status.ID] = j
	s.order = append(s.order, j.status.ID)
	s.evictLocked()
	s.mu.Unlock()

	select {
	case s.queue <- j:
	case <-s.baseCtx.Done():
		s.finish(j, nil, context.Canceled)
		return j.snapshot(), nil
	default:
		s.mu.Lock()
		delete(s.jobs, j.status.ID)
		s.mu.Unlock()
		s.metrics.jobsRejected.Add(1)
		return JobStatus{}, errQueueFull
	}
	// Journal before the caller can answer 202: once the client learns
	// the id, the job survives a restart.
	s.journal.submitted(j.status.ID, j.status.SubmittedAt, req)
	s.metrics.jobsSubmitted.Add(1)
	return j.snapshot(), nil
}

// resubmit restores one journaled job after a restart, preserving its
// original id and submission time. The enqueue blocks (workers are
// already draining the queue) so recovery never sheds jobs the journal
// promised to keep. A request that no longer validates — a journal from
// an older wire format, say — fails the job rather than dropping it.
func (s *jobStore) resubmit(rj recoveredJob) {
	p, space, cons, obj, opts, err := rj.Req.explore()
	var total int
	if err == nil {
		total, err = explore.PlannedEvaluations(space, opts)
	}
	j := &job{
		status: JobStatus{
			ID:          rj.ID,
			State:       JobQueued,
			SubmittedAt: rj.SubmittedAt,
		},
		cancel: func() {},
	}
	if err == nil {
		j.status.CandidatesTotal = total
		j.params, j.space, j.cons, j.obj, j.opts = p, space, cons, obj, *opts
	}

	s.mu.Lock()
	if _, exists := s.jobs[rj.ID]; exists {
		// A duplicate submit in a damaged journal; first wins.
		s.mu.Unlock()
		return
	}
	s.jobs[rj.ID] = j
	s.order = append(s.order, rj.ID)
	s.mu.Unlock()

	if err != nil {
		s.finish(j, nil, err)
		s.metrics.jobsRecovered.Add(1)
		return
	}
	select {
	case s.queue <- j:
	case <-s.baseCtx.Done():
		s.finish(j, nil, context.Canceled)
	}
	s.metrics.jobsRecovered.Add(1)
}

// evictLocked drops the oldest terminal jobs beyond the retention cap,
// keeping the table bounded on long-running servers. Live jobs are
// never evicted.
func (s *jobStore) evictLocked() {
	excess := len(s.jobs) - s.retained
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if j == nil {
			continue
		}
		if excess > 0 && j.snapshot().State.Terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// get returns the job's current status.
func (s *jobStore) get(id string) (JobStatus, bool) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return JobStatus{}, false
	}
	return j.snapshot(), true
}

// list returns every retained job's status (results stripped), newest
// first.
func (s *jobStore) list() []JobStatus {
	s.mu.Lock()
	ids := make([]string, len(s.order))
	copy(ids, s.order)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		if j := s.jobs[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for i := len(jobs) - 1; i >= 0; i-- {
		st := jobs[i].snapshot()
		st.Result = nil // summaries only; fetch the job for the full report
		out = append(out, st)
	}
	return out
}

// requestCancel cancels a queued or running job. It reports whether the
// job exists; canceling a terminal job is a no-op.
func (s *jobStore) requestCancel(id string) (JobStatus, bool) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return JobStatus{}, false
	}
	j.mu.Lock()
	j.cancelRequested = true
	cancel := j.cancel
	queued := j.status.State == JobQueued
	if queued {
		// User cancellation is terminal for good: journal it, before
		// the state is visible, so the job does not resurrect on
		// restart. The worker that eventually dequeues it will see the
		// flag and finish it as canceled without running the sweep.
		s.journal.ended(id, JobCanceled)
		now := time.Now()
		j.status.State = JobCanceled
		j.status.FinishedAt = &now
		j.status.Error = &APIError{Kind: guard.KindCanceled, Message: "canceled before start"}
		s.metrics.jobsCanceled.Add(1)
	}
	j.mu.Unlock()
	cancel()
	return j.snapshot(), true
}

// worker runs sweeps from the queue until the base context is canceled
// and the queue has been drained by closeAndDrain.
func (s *jobStore) worker() {
	defer s.wg.Done()
	for {
		select {
		case j := <-s.queue:
			s.run(j)
		case <-s.baseCtx.Done():
			// Drain whatever is still queued so every job reaches a
			// terminal state before shutdown completes.
			for {
				select {
				case j := <-s.queue:
					s.finish(j, nil, context.Canceled)
				default:
					return
				}
			}
		}
	}
}

// run executes one dequeued job.
func (s *jobStore) run(j *job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()

	j.mu.Lock()
	if j.status.State != JobQueued || j.cancelRequested {
		// Canceled while waiting in the queue.
		alreadyTerminal := j.status.State.Terminal()
		j.mu.Unlock()
		if !alreadyTerminal {
			s.finish(j, nil, context.Canceled)
		}
		return
	}
	now := time.Now()
	j.status.State = JobRunning
	j.status.StartedAt = &now
	j.cancel = cancel
	j.opts.OnProgress = func(done, total int) {
		j.mu.Lock()
		j.status.CandidatesDone = done
		j.status.CandidatesTotal = total
		j.mu.Unlock()
	}
	// Stream front improvements into the job status so GET /v1/jobs/{id}
	// shows the current Pareto front while a pareto search is running
	// (and the partial front after a cancel).
	j.opts.OnFrontUpdate = func(front []explore.Candidate, evaluated int) {
		wire := make([]DSECandidate, len(front))
		for i, c := range front {
			wire[i] = newDSECandidate(c)
		}
		j.mu.Lock()
		j.status.Front = wire
		j.mu.Unlock()
	}
	j.mu.Unlock()

	s.mu.Lock()
	s.running++
	s.mu.Unlock()
	res, err := s.runSweep(ctx, j)
	s.mu.Lock()
	s.running--
	s.mu.Unlock()

	s.finish(j, res, err)
}

// finish moves a job to its terminal state and records metrics. Every
// terminal transition is journaled except a shutdown cancel: drain is
// not completion, so the job stays live in the journal and re-runs on
// the next start. The end record is appended under j.mu before the
// terminal state is set, so no reader sees a job finish whose end a
// crash could still lose.
func (s *jobStore) finish(j *job, res *explore.Result, err error) {
	now := time.Now()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.State.Terminal() {
		return
	}
	var state JobState
	var apiErr *APIError
	journalEnd := true
	switch {
	case err == nil:
		state = JobDone
		s.metrics.jobsDone.Add(1)
	case errors.Is(err, context.Canceled):
		state = JobCanceled
		msg := "canceled"
		if !j.cancelRequested {
			msg = "canceled by server shutdown"
			journalEnd = false
		}
		apiErr = &APIError{Kind: guard.KindCanceled, Message: msg}
		s.metrics.jobsCanceled.Add(1)
	default:
		state = JobFailed
		apiErr = guard.Classify(err)
		s.metrics.jobsFailed.Add(1)
	}
	if journalEnd {
		s.journal.ended(j.status.ID, state)
	}
	j.status.State = state
	j.status.Error = apiErr
	j.status.FinishedAt = &now
	if res != nil {
		j.status.Result = NewDSEReport(res, j.obj)
	}
}

// wait blocks until every worker has exited (the base context must
// already be canceled).
func (s *jobStore) wait() { s.wg.Wait() }
