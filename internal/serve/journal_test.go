package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mcpat/internal/explore"
)

// journalPath returns a journal location inside a fresh temp dir.
func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "jobs.journal")
}

// oneCandidateSweep is a DSE request whose real sweep is a single tiny
// candidate — fast enough that recovery tests can run it for real.
func oneCandidateSweep() DSERequest {
	return DSERequest{Sweep: explore.Sweep{Cores: []int{1}, L2PerCoreKB: []int{64}, Fabrics: []string{"none"}}}
}

func TestJournalReplaySemantics(t *testing.T) {
	path := journalPath(t)
	logf := func(string, ...any) {}
	writeLines := func(lines ...string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	req := `{"cores":[2]}`
	writeLines(
		`{"op":"submit","id":"job-a","time":"2026-08-08T10:00:00Z","req":`+req+`}`,
		`{"op":"submit","id":"job-b","time":"2026-08-08T10:00:01Z","req":`+req+`}`,
		`{"op":"end","id":"job-a","time":"2026-08-08T10:00:02Z","state":"done"}`,
		`{"op":"submit","id":"job-c","time":"2026-08-08T10:00:03Z","req":`+req+`}`,
		`{"op":"submit","id":"job-b","time":"2026-08-08T10:00:04Z","req":`+req+`}`, // duplicate, first wins
		`not json at all{{{`, // torn tail from a crash mid-append
	)
	jl, live, err := openJournal(path, logf)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	defer jl.close()
	if len(live) != 2 || live[0].ID != "job-b" || live[1].ID != "job-c" {
		t.Fatalf("live jobs = %+v, want [job-b job-c]", live)
	}
	if live[0].Req == nil || len(live[0].Req.Cores) != 1 || live[0].Req.Cores[0] != 2 {
		t.Errorf("request not round-tripped: %+v", live[0].Req)
	}

	// The open compacted the file: only live submits remain, so a second
	// replay (restart during replay / double restart) recovers the same
	// set — no drops, no duplicates.
	jl.close()
	jl2, live2, err := openJournal(path, logf)
	if err != nil {
		t.Fatalf("re-open: %v", err)
	}
	defer jl2.close()
	if len(live2) != 2 || live2[0].ID != "job-b" || live2[1].ID != "job-c" {
		t.Fatalf("second replay diverged: %+v", live2)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), `"op":"submit"`); n != 2 {
		t.Errorf("compacted journal holds %d submits, want 2:\n%s", n, data)
	}

	// Ending a job removes it from the next replay.
	jl2.ended("job-b", JobDone)
	jl2.close()
	jl3, live3, err := openJournal(path, logf)
	if err != nil {
		t.Fatal(err)
	}
	defer jl3.close()
	if len(live3) != 1 || live3[0].ID != "job-c" {
		t.Fatalf("after end(job-b): %+v, want [job-c]", live3)
	}
}

func TestJournalOpenOnMissingAndEmptyFile(t *testing.T) {
	path := journalPath(t)
	jl, live, err := openJournal(path, func(string, ...any) {})
	if err != nil || len(live) != 0 {
		t.Fatalf("fresh journal: live=%v err=%v", live, err)
	}
	jl.close()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("journal file not created: %v", err)
	}
}

// TestJournalCompactionSyncsDir: the compaction's rename is made durable
// by syncing the journal's directory once the rename has landed, and a
// failed sync fails the open (the server then runs without durability).
func TestJournalCompactionSyncsDir(t *testing.T) {
	path := journalPath(t)
	realSync := syncDir
	t.Cleanup(func() { syncDir = realSync })
	var synced []string
	syncDir = func(dir string) error {
		synced = append(synced, dir)
		if _, err := os.Stat(path); err != nil {
			t.Errorf("directory synced before the rename: %v", err)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Errorf("directory synced while the temp file exists (stat: %v)", err)
		}
		return realSync(dir)
	}
	jl, _, err := openJournal(path, func(string, ...any) {})
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	jl.close()
	if want := []string{filepath.Dir(path)}; !reflect.DeepEqual(synced, want) {
		t.Errorf("synced %q, want %q", synced, want)
	}

	boom := errors.New("injected sync failure")
	syncDir = func(string) error { return boom }
	if jl, _, err := openJournal(path, func(string, ...any) {}); !errors.Is(err, boom) {
		if jl != nil {
			jl.close()
		}
		t.Errorf("openJournal with a failing directory sync: err = %v, want %v", err, boom)
	}
}

// TestJournalCreatesDirDurably: a journal whose directories do not exist
// yet gets each new directory's entry synced into its parent, deepest
// first, before the compaction syncs the journal's own directory. A
// second open finds every directory in place and syncs only that one.
func TestJournalCreatesDirDurably(t *testing.T) {
	tmp := t.TempDir()
	path := filepath.Join(tmp, "a", "b", "jobs.jsonl")
	realSync := syncDir
	t.Cleanup(func() { syncDir = realSync })
	var synced []string
	syncDir = func(dir string) error {
		synced = append(synced, dir)
		return realSync(dir)
	}
	for _, want := range [][]string{
		{filepath.Join(tmp, "a"), tmp, filepath.Join(tmp, "a", "b")},
		{filepath.Join(tmp, "a", "b")},
	} {
		synced = nil
		jl, _, err := openJournal(path, func(string, ...any) {})
		if err != nil {
			t.Fatalf("openJournal: %v", err)
		}
		jl.close()
		if !reflect.DeepEqual(synced, want) {
			t.Errorf("synced %q, want %q", synced, want)
		}
	}
}

// TestJobRecoveryAfterKill simulates a SIGKILL: the first server is
// abandoned without any drain, and a second server on the same journal
// must re-run the in-flight job under its original id.
func TestJobRecoveryAfterKill(t *testing.T) {
	path := journalPath(t)

	s1 := New(Config{JobWorkers: 1, JournalPath: path})
	ts1 := httptest_start(t, s1)
	stub1 := installStubSweep(t, s1) // blocks: the job dies mid-run

	_, body := doJSON(t, "POST", ts1+"/v1/dse", oneCandidateSweep())
	st := decode[JobStatus](t, body)
	if st.State.Terminal() {
		t.Fatalf("submit: %+v", st)
	}
	<-stub1.started // running when the "crash" happens

	// Also a job the user canceled before the crash: must NOT resurrect.
	_, body = doJSON(t, "POST", ts1+"/v1/dse", oneCandidateSweep())
	canceled := decode[JobStatus](t, body).ID
	doJSON(t, "DELETE", ts1+"/v1/jobs/"+canceled, nil)

	// SIGKILL: no Shutdown, no journal close. (The stub goroutine stays
	// blocked until releaseAll at cleanup — a stand-in for process death.)
	t.Cleanup(stub1.releaseAll)

	// Restart: the live job is recovered and runs its real (tiny) sweep.
	s2 := New(Config{JobWorkers: 1, JournalPath: path})
	ts2 := httptest_start(t, s2)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	})

	if got := s2.metrics.jobsRecovered.Load(); got != 1 {
		t.Fatalf("recovered %d jobs, want 1", got)
	}
	final := pollJob(t, ts2, st.ID, 120*time.Second)
	if final.State != JobDone {
		t.Fatalf("recovered job must re-run to done, got %+v", final)
	}
	if final.ID != st.ID || !final.SubmittedAt.Equal(st.SubmittedAt) {
		t.Errorf("recovered job lost identity: %+v vs %+v", final, st)
	}
	if resp, _ := doJSON(t, "GET", ts2+"/v1/jobs/"+canceled, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("user-canceled job resurrected after restart")
	}

	// Third start: the completed job was journaled terminal — nothing to
	// recover, nothing double-run.
	s3 := New(Config{JobWorkers: 1, JournalPath: path})
	if got := s3.metrics.jobsRecovered.Load(); got != 0 {
		t.Errorf("third start recovered %d jobs, want 0", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s3.Shutdown(ctx)
}

// TestDrainKeepsJobsDurable: jobs canceled by a graceful drain are NOT
// journaled terminal, so a restarted server re-runs them.
func TestDrainKeepsJobsDurable(t *testing.T) {
	path := journalPath(t)

	s1 := New(Config{JobWorkers: 1, JournalPath: path})
	ts1 := httptest_start(t, s1)
	stub := installStubSweep(t, s1)
	defer stub.releaseAll()

	_, body := doJSON(t, "POST", ts1+"/v1/dse", oneCandidateSweep())
	id := decode[JobStatus](t, body).ID
	<-stub.started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st, _ := s1.jobs.get(id); st.State != JobCanceled {
		t.Fatalf("drain should cancel the running job: %+v", st)
	}

	s2 := New(Config{JobWorkers: 1, JournalPath: path})
	ts2 := httptest_start(t, s2)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	})
	if got := s2.metrics.jobsRecovered.Load(); got != 1 {
		t.Fatalf("recovered %d jobs after drain, want 1", got)
	}
	if final := pollJob(t, ts2, id, 120*time.Second); final.State != JobDone {
		t.Fatalf("drained job must complete after restart: %+v", final)
	}
}

// TestDeleteCompletedJob: canceling an already-terminal job is a no-op
// that returns its (unchanged) terminal status, and the journal does
// not resurrect it.
func TestDeleteCompletedJob(t *testing.T) {
	path := journalPath(t)
	s, ts := newTestServerJournal(t, Config{JobWorkers: 1, JournalPath: path})
	stub := installStubSweep(t, s)

	_, body := doJSON(t, "POST", ts+"/v1/dse", oneCandidateSweep())
	id := decode[JobStatus](t, body).ID
	<-stub.started
	stub.releaseAll()
	if final := pollJob(t, ts, id, 10*time.Second); final.State != JobDone {
		t.Fatalf("setup: %+v", final)
	}

	resp, body := doJSON(t, "DELETE", ts+"/v1/jobs/"+id, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE on done job: %d %s", resp.StatusCode, body)
	}
	st := decode[JobStatus](t, body)
	if st.State != JobDone {
		t.Fatalf("DELETE flipped a done job to %q", st.State)
	}
	if st.Error != nil {
		t.Errorf("done job grew an error after DELETE: %+v", st.Error)
	}

	// Replay confirms the job stayed ended.
	jl, live, err := openJournal(path, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	defer jl.close()
	for _, rj := range live {
		if rj.ID == id {
			t.Error("done job still live in journal after DELETE")
		}
	}
}

// TestJobEndJournaledBeforeVisible pins the durability order of
// terminal transitions: a job's end record is written before any reader
// can see the job terminal, for a sweep that finishes and for a DELETE
// of a queued job. Otherwise a client could see "done", the server
// crash, and the job re-run on restart.
func TestJobEndJournaledBeforeVisible(t *testing.T) {
	s, ts := newTestServerJournal(t, Config{JobWorkers: 1, JournalPath: journalPath(t)})
	stub := installStubSweep(t, s)
	defer stub.releaseAll()
	var mu sync.Mutex
	var ended []string
	s.jobs.journal.testHook = func(rec journalRecord) {
		if rec.Op != "end" {
			return
		}
		// A status read that can run now must not see the job
		// terminal; one that has to wait is ordered after the append.
		seen := make(chan JobState, 1)
		go func() {
			st, _ := s.jobs.get(rec.ID)
			seen <- st.State
		}()
		select {
		case st := <-seen:
			if st.Terminal() {
				t.Errorf("job %s read as %q before its end record was written", rec.ID, st)
			}
		case <-time.After(100 * time.Millisecond):
		}
		mu.Lock()
		ended = append(ended, rec.ID)
		mu.Unlock()
	}

	_, body := doJSON(t, "POST", ts+"/v1/dse", oneCandidateSweep())
	running := decode[JobStatus](t, body).ID
	<-stub.started
	_, body = doJSON(t, "POST", ts+"/v1/dse", oneCandidateSweep())
	queued := decode[JobStatus](t, body).ID
	if resp, body := doJSON(t, "DELETE", ts+"/v1/jobs/"+queued, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE queued job: %d %s", resp.StatusCode, body)
	}
	stub.releaseAll()
	if final := pollJob(t, ts, running, 10*time.Second); final.State != JobDone {
		t.Fatalf("running job: %+v", final)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(ended) != 2 || ended[0] != queued || ended[1] != running {
		t.Fatalf("end records for %v, want [%s %s]", ended, queued, running)
	}
}

// TestRecoveryOverflowsQueueDepth: more journaled live jobs than the
// queue depth must all recover (blocking enqueue), none shed.
func TestRecoveryOverflowsQueueDepth(t *testing.T) {
	path := journalPath(t)
	// Seed a journal with 4 live jobs.
	jl, _, err := openJournal(path, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	req := oneCandidateSweep()
	for _, id := range []string{"job-r1", "job-r2", "job-r3", "job-r4"} {
		jl.submitted(id, time.Now(), &req)
	}
	jl.close()

	s, ts := newTestServerJournal(t, Config{JobWorkers: 1, JobQueueDepth: 1, JournalPath: path})
	if got := s.metrics.jobsRecovered.Load(); got != 4 {
		t.Fatalf("recovered %d, want 4", got)
	}
	for _, id := range []string{"job-r1", "job-r2", "job-r3", "job-r4"} {
		if final := pollJob(t, ts, id, 240*time.Second); final.State != JobDone {
			t.Fatalf("%s: %+v", id, final)
		}
	}
}

// TestRecoveryOfUnparseableRequest: a journaled request that no longer
// validates fails the job visibly instead of dropping it.
func TestRecoveryOfUnparseableRequest(t *testing.T) {
	path := journalPath(t)
	jl, _, err := openJournal(path, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	bad := DSERequest{Sweep: explore.Sweep{Cores: []int{2}, Fabrics: []string{"warp-drive"}}}
	jl.submitted("job-bad", time.Now(), &bad)
	jl.close()

	s, ts := newTestServerJournal(t, Config{JobWorkers: 1, JournalPath: path})
	if got := s.metrics.jobsRecovered.Load(); got != 1 {
		t.Fatalf("recovered %d, want 1", got)
	}
	final := pollJob(t, ts, "job-bad", 10*time.Second)
	if final.State != JobFailed || final.Error == nil {
		t.Fatalf("invalid recovered request must fail the job: %+v", final)
	}
}

// TestJournalUnusablePathDegrades: a journal path that cannot be used
// must not prevent the server from starting.
func TestJournalUnusablePathDegrades(t *testing.T) {
	dir := t.TempDir()
	blocked := filepath.Join(dir, "blocked")
	if err := os.WriteFile(blocked, []byte("a file, not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	var warned bool
	s := New(Config{
		JobWorkers:  1,
		JournalPath: filepath.Join(blocked, "jobs.journal"), // parent is a file
		Logf: func(format string, args ...any) {
			if strings.Contains(format, "journal unavailable") {
				warned = true
			}
		},
	})
	ts := httptest_start(t, s)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	if !warned {
		t.Error("degrading to a non-durable server must warn")
	}
	// The server still takes and runs jobs.
	stub := installStubSweep(t, s)
	defer stub.releaseAll()
	resp, body := doJSON(t, "POST", ts+"/v1/dse", oneCandidateSweep())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit on non-durable server: %d %s", resp.StatusCode, body)
	}
	<-stub.started
	stub.releaseAll()
	if final := pollJob(t, ts, decode[JobStatus](t, body).ID, 10*time.Second); final.State != JobDone {
		t.Fatalf("non-durable job: %+v", final)
	}
}

// TestJournalSubmitBeforeResponse pins the durability point: the submit
// record is on disk before the 202 goes out.
func TestJournalSubmitBeforeResponse(t *testing.T) {
	path := journalPath(t)
	s, ts := newTestServerJournal(t, Config{JobWorkers: 1, JournalPath: path})
	stub := installStubSweep(t, s)
	defer stub.releaseAll()

	_, body := doJSON(t, "POST", ts+"/v1/dse", oneCandidateSweep())
	id := decode[JobStatus](t, body).ID

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec journalRecord
		if json.Unmarshal([]byte(line), &rec) == nil && rec.Op == "submit" && rec.ID == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("submit for %s not journaled by response time:\n%s", id, data)
	}
	<-stub.started
	stub.releaseAll()
	pollJob(t, ts, id, 10*time.Second)
}

// httptest_start mounts the server without the Shutdown cleanup (for
// tests that manage shutdown themselves, e.g. to simulate crashes).
func httptest_start(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// newTestServerJournal is newTestServer for configs carrying a journal.
func newTestServerJournal(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s := New(cfg)
	url := httptest_start(t, s)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, url
}

// TestJournalReplaysLiteralLine pins the journal's bytes: a submit line
// with every request field set replays into the request it describes
// and compacts back to the same bytes, so journals written by earlier
// builds keep replaying.
func TestJournalReplaysLiteralLine(t *testing.T) {
	const line = `{"op":"submit","id":"job-parent","time":"2026-08-08T10:00:00Z","req":{"nm":22,"clock_hz":2500000000,"threads":4,"mem_bw_bytes_per_s":64000000000,"cores":[2,4],"l2_per_core_kb":[64,256],"fabrics":["mesh","ring"],"cluster_sizes":[1,2],"max_area_mm2":400,"max_tdp_w":250,"objective":"perf/watt","search":"pareto","budget":12,"seed":7,"workers":2,"candidate_timeout_ms":5000,"fail_fast":true}}` + "\n"
	want := &DSERequest{
		Sweep: explore.Sweep{
			NM: 22, ClockHz: 2.5e9, Threads: 4, MemBW: 64e9,
			Cores: []int{2, 4}, L2PerCoreKB: []int{64, 256},
			Fabrics: []string{"mesh", "ring"}, ClusterSizes: []int{1, 2},
			MaxAreaMM2: 400, MaxTDPW: 250, Objective: "perf/watt",
		},
		Search: "pareto", Budget: 12, Seed: 7,
		Workers: 2, CandidateTimeoutMS: 5000, FailFast: true,
	}
	path := journalPath(t)
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	jl, live, err := openJournal(path, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	defer jl.close()
	if len(live) != 1 || !reflect.DeepEqual(live[0].Req, want) {
		t.Fatalf("replayed %+v, want one job with %+v", live, want)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != line {
		t.Errorf("compacted journal differs from the line it replayed (%v):\n got %s\nwant %s", err, data, line)
	}
}
