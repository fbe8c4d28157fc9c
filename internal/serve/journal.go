package serve

// Job durability. mcpatd journals every accepted DSE job to an
// append-only JSONL file and marks it terminal when it completes, so a
// crashed or killed server recovers its queued and running sweeps on
// restart instead of silently dropping work the client was told was
// accepted (202 + job id).
//
// The format is one JSON record per line:
//
//	{"op":"submit","id":"job-…","time":…,"req":{…}}
//	{"op":"end","id":"job-…","time":…,"state":"done"}
//
// Semantics, chosen so recovery is exact:
//
//   - A job is journaled "submit" before its 202 response is written:
//     once a client knows the id, the job survives a crash.
//   - "end" is journaled for done, failed, and user-canceled jobs. A
//     job canceled by server drain is deliberately NOT journaled
//     terminal — shutdown is not completion, and the job re-runs on
//     the next start.
//   - Every append is fsynced, so at most the final line can be torn
//     by a crash. Replay tolerates torn and corrupt lines by skipping
//     them (a torn "submit" loses that one not-yet-acknowledged job; a
//     torn "end" re-runs one idempotent sweep — both safe).
//   - Open replays the log, then compacts it to just the live submit
//     records via write-temp-then-rename, so the file stays bounded by
//     the number of in-flight jobs, not server lifetime. The directory
//     is synced after the rename: the rename lives in the directory, and
//     without that sync a power loss can bring back the old journal (or
//     none, on a first start) and lose every job accepted since. For
//     the same reason, a journal directory that open creates is synced
//     into its parent, and so is every parent it creates.
//
// Journal write failures after open (disk full, pulled volume) degrade:
// the failure is logged once and the server keeps running without
// durability. Durability is never a reason to stop serving evaluations.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// journalRecord is one line of the job journal.
type journalRecord struct {
	Op    string      `json:"op"` // "submit" or "end"
	ID    string      `json:"id"`
	Time  time.Time   `json:"time"`
	Req   *DSERequest `json:"req,omitempty"`   // submit only
	State JobState    `json:"state,omitempty"` // end only
}

// recoveredJob is one live job found during journal replay.
type recoveredJob struct {
	ID          string
	Req         *DSERequest
	SubmittedAt time.Time
}

// journal is the append side of the job log. Safe for concurrent use.
type journal struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	logf   func(string, ...any)
	broken bool // a write failed; durability disabled, logged once

	// testHook, when set, runs before each record is written; tests
	// pin the order of appends against other state changes with it.
	testHook func(journalRecord)
}

// openJournal replays the journal at path (creating it if absent),
// compacts it to the surviving live jobs, and returns the append handle
// plus those jobs in original submission order.
func openJournal(path string, logf func(string, ...any)) (*journal, []recoveredJob, error) {
	if err := makeDirDurable(filepath.Dir(path)); err != nil {
		return nil, nil, fmt.Errorf("journal dir: %w", err)
	}
	live, err := replayJournal(path, logf)
	if err != nil {
		return nil, nil, err
	}
	// Compact: rewrite only the live submits, atomically.
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal compact: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, rj := range live {
		rec := journalRecord{Op: "submit", ID: rj.ID, Time: rj.SubmittedAt, Req: rj.Req}
		if err := enc.Encode(&rec); err != nil {
			f.Close()
			os.Remove(tmp)
			return nil, nil, fmt.Errorf("journal compact: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, nil, fmt.Errorf("journal compact: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return nil, nil, fmt.Errorf("journal compact: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return nil, nil, fmt.Errorf("journal compact: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return nil, nil, fmt.Errorf("journal compact: %w", err)
	}
	h, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal open: %w", err)
	}
	return &journal{f: h, path: path, logf: logf}, live, nil
}

// makeDirDurable creates dir and any missing parents, then syncs the
// parent of each directory it created, deepest first: a new directory's
// entry lives in its parent, and until that parent is synced a power loss
// can drop the directory together with the journal inside it.
func makeDirDurable(dir string) error {
	var created []string
	for d := dir; ; {
		if _, err := os.Stat(d); !errors.Is(err, fs.ErrNotExist) {
			break // exists, or MkdirAll reports why it cannot be reached
		}
		created = append(created, d)
		parent := filepath.Dir(d)
		if parent == d {
			break
		}
		d = parent
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, d := range created {
		if err := syncDir(filepath.Dir(d)); err != nil {
			return err
		}
	}
	return nil
}

// syncDir flushes the directory entry changes in dir (a rename, a new
// subdirectory) to stable storage. It is a variable so tests can observe
// the call.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// replayJournal reads every parseable record and returns the jobs that
// were submitted but never ended, in submission order.
func replayJournal(path string, logf func(string, ...any)) ([]recoveredJob, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal replay: %w", err)
	}
	defer f.Close()

	liveByID := make(map[string]int) // id -> index in order, -1 = ended
	var order []recoveredJob
	skipped := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), maxBodyBytes)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// Torn tail from a crash mid-append, or external damage.
			// Either way the record is unusable; skip it.
			skipped++
			continue
		}
		switch rec.Op {
		case "submit":
			if rec.ID == "" || rec.Req == nil {
				skipped++
				continue
			}
			if _, dup := liveByID[rec.ID]; dup {
				continue // duplicate submit; first wins
			}
			liveByID[rec.ID] = len(order)
			order = append(order, recoveredJob{ID: rec.ID, Req: rec.Req, SubmittedAt: rec.Time})
		case "end":
			liveByID[rec.ID] = -1
		default:
			skipped++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journal replay: %w", err)
	}
	if skipped > 0 {
		logf("mcpatd: journal %s: skipped %d unparseable record(s)", path, skipped)
	}
	var live []recoveredJob
	for _, rj := range order {
		if liveByID[rj.ID] != -1 {
			live = append(live, rj)
		}
	}
	return live, nil
}

// append writes one record durably. Failures disable the journal with a
// single log line; they never fail the caller.
func (jl *journal) append(rec journalRecord) {
	if jl == nil {
		return
	}
	if jl.testHook != nil {
		jl.testHook(rec)
	}
	data, err := json.Marshal(&rec)
	if err != nil {
		return // wire types always marshal; defensive only
	}
	data = append(data, '\n')
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.broken {
		return
	}
	if _, err := jl.f.Write(data); err != nil {
		jl.disableLocked(err)
		return
	}
	if err := jl.f.Sync(); err != nil {
		jl.disableLocked(err)
	}
}

func (jl *journal) disableLocked(err error) {
	jl.broken = true
	jl.logf("mcpatd: journal %s write failed, durability disabled: %v", jl.path, err)
}

// submitted records an accepted job.
func (jl *journal) submitted(id string, at time.Time, req *DSERequest) {
	if jl == nil {
		return
	}
	jl.append(journalRecord{Op: "submit", ID: id, Time: at, Req: req})
}

// ended records a terminal job. Shutdown-canceled jobs must not be
// passed here — they stay live in the journal so the next start
// re-runs them.
func (jl *journal) ended(id string, state JobState) {
	if jl == nil {
		return
	}
	jl.append(journalRecord{Op: "end", ID: id, Time: time.Now(), State: state})
}

// close releases the file handle. Pending appends complete first.
func (jl *journal) close() {
	if jl == nil {
		return
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	jl.f.Close()
}
