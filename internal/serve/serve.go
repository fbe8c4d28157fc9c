// Package serve is the HTTP evaluation service layered on the modeling
// engine: mcpatd's handlers, job store, admission control, metrics, and
// graceful shutdown. It exposes synchronous single-chip evaluation
// (POST /v1/evaluate, native Config JSON or McPAT-style XML), batched
// evaluation sharing one warm cache generation (POST /v1/batch),
// asynchronous design-space exploration as cancellable jobs
// (POST /v1/dse, GET|DELETE /v1/jobs/{id}), and the operational
// endpoints GET /healthz and GET /metrics. With Config.JournalPath set,
// accepted jobs are journaled and recovered across restarts.
//
// The service reuses the engine's hardening instead of duplicating it:
// the guard error taxonomy maps onto HTTP statuses (config 400,
// infeasible and model-domain 422, internal 500, each with the
// component path in the structured error body), sweeps run on the
// explore worker pool under per-job contexts, and a semaphore plus a
// bounded job queue shed overload with 429 rather than queueing
// unboundedly.
package serve

import (
	"context"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcpat/internal/distrib"
	"mcpat/internal/explore"
	"mcpat/internal/guard"
)

// Config tunes the server. The zero value selects the documented
// defaults.
type Config struct {
	// MaxInFlight bounds concurrent synchronous evaluations
	// (POST /v1/evaluate); excess requests are shed with 429 and
	// Retry-After rather than queued. <= 0 selects GOMAXPROCS.
	MaxInFlight int

	// RequestTimeout is the per-request deadline of synchronous
	// evaluations; a request exceeding it gets 504 and its evaluation is
	// abandoned. 0 selects 60s; negative disables the deadline.
	RequestTimeout time.Duration

	// JobWorkers bounds concurrently running DSE jobs (each job runs its
	// own candidate-level worker pool). <= 0 selects 2.
	JobWorkers int

	// JobQueueDepth bounds jobs waiting to start; submissions beyond it
	// are shed with 429. <= 0 selects 16.
	JobQueueDepth int

	// JobRetention caps terminal jobs kept for polling before the oldest
	// are evicted. <= 0 selects 64.
	JobRetention int

	// JournalPath, when non-empty, makes accepted DSE jobs durable: each
	// submission is appended (fsynced) to this JSONL file and marked
	// terminal on completion, and New replays the file so jobs that were
	// queued or running when the previous process died are re-run with
	// their original ids. An unusable path degrades to a non-durable
	// server with a logged warning — it never prevents startup.
	JournalPath string

	// WorkerMode enables POST /v1/dse/shard, the coordinator-facing
	// shard evaluation endpoint (mcpatd -worker). Off by default: a
	// public evaluation server should not expose compute that bypasses
	// the job queue.
	WorkerMode bool

	// RemoteWorkers lists mcpatd -worker base URLs. When non-empty,
	// exhaustive DSE jobs are coordinated across them (plus the local
	// engine) by internal/distrib instead of running single-process;
	// coordinator counters appear under "distrib" in GET /metrics.
	RemoteWorkers []string

	// Logf, when non-nil, receives one line per completed request and
	// per lifecycle event (Printf-style).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.JobQueueDepth <= 0 {
		c.JobQueueDepth = 16
	}
	if c.JobRetention <= 0 {
		c.JobRetention = 64
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the mcpatd HTTP service. Create with New, mount Handler on
// an http.Server, and call Shutdown to drain.
type Server struct {
	cfg     Config
	metrics *metrics
	jobs    *jobStore
	journal *journal
	mux     *http.ServeMux

	// evalSem is the admission semaphore of synchronous evaluations.
	evalSem chan struct{}

	// baseCtx parents every job; cancelBase aborts them all on drain.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	draining atomic.Bool
	inflight sync.WaitGroup
}

// New builds a ready-to-serve Server. When cfg.JournalPath is set, jobs
// journaled as live by a previous process are already re-enqueued when
// New returns — mount the handler afterwards and recovery is invisible
// to clients beyond their jobs still existing.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := newMetrics()

	var jl *journal
	var recovered []recoveredJob
	if cfg.JournalPath != "" {
		var err error
		jl, recovered, err = openJournal(cfg.JournalPath, cfg.Logf)
		if err != nil {
			// Durability is an upgrade, not a precondition: a bad journal
			// path must not keep the evaluation service down.
			cfg.Logf("mcpatd: warning: job journal unavailable, running without durability: %v", err)
			jl = nil
		}
	}

	baseCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		metrics:    m,
		journal:    jl,
		jobs:       newJobStore(baseCtx, cfg.JobWorkers, cfg.JobQueueDepth, cfg.JobRetention, m, jl),
		evalSem:    make(chan struct{}, cfg.MaxInFlight),
		baseCtx:    baseCtx,
		cancelBase: cancel,
	}
	if len(cfg.RemoteWorkers) > 0 {
		// The coordinator metrics instance is long-lived so /metrics
		// aggregates across jobs.
		m.coord = &distrib.Metrics{}
	}
	// distrib.Run fans exhaustive jobs out across the configured
	// workers and runs everything else single-process.
	s.jobs.runSweep = func(ctx context.Context, j *job) (*explore.Result, error) {
		return distrib.Run(ctx, j.params, j.space, j.cons, j.obj, &distrib.Options{
			Options: j.opts,
			Remotes: cfg.RemoteWorkers,
			Metrics: m.coord,
			Logf:    cfg.Logf,
		})
	}
	for _, rj := range recovered {
		s.jobs.resubmit(rj)
	}
	if len(recovered) > 0 {
		cfg.Logf("mcpatd: recovered %d journaled job(s)", len(recovered))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/trace", s.handleTrace)
	mux.HandleFunc("POST /v1/dse", s.handleDSESubmit)
	mux.HandleFunc("POST /v1/dse/shard", s.handleDSEShard)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// Handler returns the full middleware-wrapped handler chain.
func (s *Server) Handler() http.Handler { return s.instrument(s.mux) }

// Shutdown drains the server: new requests (except /healthz) are
// refused with 503, every queued and running job is canceled, and the
// call blocks until in-flight requests have flushed and the job workers
// have exited, or until ctx expires. The HTTP listener itself is the
// caller's to close (http.Server.Shutdown) - do that first so no new
// connections arrive, then call this.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.cancelBase()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		s.jobs.wait()
		close(done)
	}()
	select {
	case <-done:
		// Workers have exited, so no further journal appends: close the
		// handle. Jobs canceled by this drain were deliberately not
		// journaled terminal — the next process re-runs them.
		s.journal.close()
		s.cfg.Logf("mcpatd: drain complete")
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// routeLabel normalizes a request path to its route pattern for
// metrics, collapsing job ids.
func routeLabel(r *http.Request) string {
	path := r.URL.Path
	if strings.HasPrefix(path, "/v1/jobs/") {
		path = "/v1/jobs/{id}"
	}
	return r.Method + " " + path
}

// statusRecorder captures the response status for metrics/logging.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap lets http.NewResponseController reach the connection's
// Flush through the recorder.
func (w *statusRecorder) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument is the outermost middleware: panic recovery, drain
// refusal, in-flight tracking, metrics, and logging.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeLabel(r)
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()

		s.inflight.Add(1)
		s.metrics.inFlight.Add(1)
		defer func() {
			if p := recover(); p != nil {
				// Handlers sit above the guard.Recover boundaries of the
				// models, so a panic here is a service bug; contain it per
				// request all the same.
				s.cfg.Logf("mcpatd: panic serving %s: %v", route, p)
				if rec.status == 0 {
					writeError(rec, http.StatusInternalServerError,
						&APIError{Kind: guard.KindInternal, Message: "internal server error"})
				}
			}
			dur := time.Since(start)
			if rec.status == 0 {
				rec.status = http.StatusOK
			}
			s.metrics.observe(route, strconv.Itoa(rec.status), dur)
			s.metrics.inFlight.Add(-1)
			s.inflight.Done()
			s.cfg.Logf("mcpatd: %s -> %d (%s)", route, rec.status, dur.Round(time.Microsecond))
		}()

		// During drain only /healthz stays reachable, so load balancers
		// can watch the server report itself unready.
		if s.draining.Load() && r.URL.Path != "/healthz" {
			writeError(rec, http.StatusServiceUnavailable,
				&APIError{Kind: kindDraining, Message: "server is draining"})
			return
		}
		next.ServeHTTP(rec, r)
	})
}
