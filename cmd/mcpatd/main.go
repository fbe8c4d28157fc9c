// Command mcpatd is the McPAT evaluation service: a JSON-over-HTTP
// front end to the power/area/timing models, sharing one warm synthesis
// cache across every client instead of paying CLI cold-start per query.
//
// Endpoints:
//
//	POST   /v1/evaluate   synchronous single-chip evaluation
//	                      (EvaluateRequest JSON, or McPAT-style XML with
//	                      an XML content type)
//	POST   /v1/batch      evaluate many configs in one request, sharing
//	                      one warm cache generation
//	POST   /v1/dse        submit an async design-space sweep; 202 + job id
//	POST   /v1/dse/shard  (with -worker) evaluate one sweep shard for a
//	                      coordinator, streaming progress as NDJSON
//	GET    /v1/jobs       job summaries
//	GET    /v1/jobs/{id}  job status / progress / result
//	DELETE /v1/jobs/{id}  cancel a queued or running job
//	GET    /healthz       liveness (503 while draining)
//	GET    /metrics       request/job/cache counters (JSON)
//
// Overload is shed with 429 + Retry-After: -max-inflight bounds
// concurrent evaluations and -job-queue bounds waiting sweeps. SIGTERM
// (or SIGINT) starts a graceful drain: the listener stops accepting,
// running jobs are canceled (their partial results stay pollable until
// the process exits), and in-flight responses flush before exit,
// bounded by -drain-timeout.
//
// With -journal the job store is durable: accepted DSE jobs are
// journaled (fsynced) before the 202 response, and jobs that were
// queued or running when the process died — SIGKILL included — are
// re-run with their original ids on the next start.
//
// Distributed sweeps: -worker turns the daemon into a shard evaluator
// for a coordinator (mcpat-dse -remote, or another mcpatd started with
// -remote host1,host2 that fans its /v1/dse jobs out).
// -pprof-addr exposes net/http/pprof on a separate (keep it local)
// listener for profiling coordinator and worker hot paths in situ.
//
// Example:
//
//	mcpatd -addr :8490
//	curl -s localhost:8490/v1/evaluate -d '{"preset":"niagara"}'
//	mcpatd -addr :8491 -worker             # shard evaluator
//	mcpat-dse -remote localhost:8491 ...   # coordinator
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers debug handlers on the default mux, exposed only via -pprof-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"mcpat"
	"mcpat/internal/cliutil"
)

func main() {
	var (
		addr         = flag.String("addr", ":8490", "listen address (use :0 for a random port)")
		maxInflight  = flag.Int("max-inflight", 0, "concurrent synchronous evaluations (0 = GOMAXPROCS)")
		reqTimeout   = flag.Duration("request-timeout", 60*time.Second, "per-request evaluation deadline (<0 = none)")
		jobWorkers   = flag.Int("job-workers", 2, "concurrently running DSE jobs")
		jobQueue     = flag.Int("job-queue", 16, "queued DSE jobs before shedding with 429")
		jobRetention = flag.Int("job-retention", 64, "finished jobs kept for polling")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown deadline")
		journalPath  = flag.String("journal", "", "job journal file: queued/running DSE jobs survive restarts (empty = not durable)")
		worker       = flag.Bool("worker", false, "enable POST /v1/dse/shard so a coordinator (mcpat-dse -remote or another mcpatd -remote) can dispatch sweep shards here")
		remote       = flag.String("remote", "", "comma-separated mcpatd -worker base URLs: coordinate exhaustive DSE jobs across them (plus this process)")
		pprofAddr    = flag.String("pprof-addr", "", "listen address for net/http/pprof (empty = disabled); keep it on localhost")
		quiet        = flag.Bool("quiet", false, "suppress per-request logging")
	)
	flag.Parse()

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	srv := mcpat.NewServer(mcpat.ServerConfig{
		MaxInFlight:    *maxInflight,
		RequestTimeout: *reqTimeout,
		JobWorkers:     *jobWorkers,
		JobQueueDepth:  *jobQueue,
		JobRetention:   *jobRetention,
		JournalPath:    *journalPath,
		WorkerMode:     *worker,
		RemoteWorkers:  cliutil.SplitCSV(*remote),
		Logf:           logf,
	})

	// The profiling listener is separate from the service listener and
	// uses the net/http/pprof handlers on the default mux (the service
	// itself serves from its own mux, so nothing else leaks here).
	if *pprofAddr != "" {
		go func() {
			log.Printf("mcpatd: pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("mcpatd: pprof listener failed: %v", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcpatd:", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	// Printed unconditionally so scripts (and the CI smoke test) can
	// scrape the bound port when -addr :0 picked a random one.
	log.Printf("mcpatd: listening on %s", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "mcpatd:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // restore default signal behavior: a second signal kills hard

	log.Printf("mcpatd: signal received; draining (timeout %s)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Close the listener and wait for in-flight connections first, then
	// drain the service layer (cancel jobs, wait for workers).
	httpErr := httpSrv.Shutdown(drainCtx)
	srvErr := srv.Shutdown(drainCtx)
	if err := errors.Join(httpErr, srvErr); err != nil {
		fmt.Fprintln(os.Stderr, "mcpatd: unclean shutdown:", err)
		os.Exit(1)
	}
	log.Printf("mcpatd: clean shutdown")
}
