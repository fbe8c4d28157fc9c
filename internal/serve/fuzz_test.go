package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mcpat/internal/guard"
)

// FuzzJournalReplay feeds arbitrary journal contents to replayJournal.
// It may not panic, and it recovers exactly the jobs with a submit
// record, carrying an id and a request, that no end record names, each
// once. The seeds are a journal the server's writer produced and the
// same journal with its last line torn.
func FuzzJournalReplay(f *testing.F) {
	path := filepath.Join(f.TempDir(), "jobs.journal")
	jl, _, err := openJournal(path, func(string, ...any) {})
	if err != nil {
		f.Fatal(err)
	}
	req := oneCandidateSweep()
	at := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	jl.submitted("job-a", at, &req)
	jl.submitted("job-b", at.Add(time.Second), &req)
	jl.ended("job-a", JobDone)
	jl.submitted("job-c", at.Add(2*time.Second), &req)
	jl.close()
	written, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(written)
	f.Add(written[:len(written)-9])

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "jobs.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		live, err := replayJournal(path, func(string, ...any) {})
		if err != nil {
			return // a line past the scanner's limit fails the open
		}
		want := map[string]bool{}
		ended := map[string]bool{}
		for _, line := range bytes.Split(data, []byte("\n")) {
			var rec journalRecord
			if json.Unmarshal(line, &rec) != nil {
				continue
			}
			switch {
			case rec.Op == "submit" && rec.ID != "" && rec.Req != nil:
				want[rec.ID] = true
			case rec.Op == "end":
				ended[rec.ID] = true
			}
		}
		for id := range ended {
			delete(want, id)
		}
		for _, j := range live {
			if j.ID == "" || j.Req == nil {
				t.Fatalf("recovered job %+v lacks an id or a request", j)
			}
			if !want[j.ID] {
				t.Fatalf("recovered %q, which was never submitted, was ended, or came back twice", j.ID)
			}
			delete(want, j.ID)
		}
		if len(want) > 0 {
			t.Fatalf("live submits %v were not recovered", want)
		}
	})
}

// FuzzTraceRequest feeds arbitrary bodies through the /v1/trace request
// decode and the translation of its thermal options, stopping before
// traceSetup synthesizes a chip. Neither may panic, and every option
// error is a config error.
func FuzzTraceRequest(f *testing.F) {
	cfg, err := os.ReadFile("../trace/testdata/config.json")
	if err != nil {
		f.Fatal(err)
	}
	fixture, err := json.Marshal(TraceRequest{Gem5Config: cfg, StatsTxt: "sim_seconds 0.001\n",
		Thermal: &TraceThermalOptions{RthetaJA: 0.8, AmbientK: 318, UseFloorplan: true,
			Governor: "schedule", FreqSchedule: []float64{1, 0.5}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	for _, body := range []string{
		`{"preset":"atom-class","stats_txt":"x","thermal":{"rtheta_ja":0.8,"governor":"headroom","target_k":350}}`,
		`{"config":{"NM":22},"stats_txt":"x","thermal":{"rtheta_ja":0.8,"max_tj_k":370,"time_const_s":0.01}}`,
		`{"thermal":{}}`,
		`{"thermal":{"rtheta_ja":0.8,"governor":"ondemand"}}`,
		`{"thermal":{"rtheta_ja":0.8,"governor":"schedule"}}`,
		`{"thermal":{"rtheta_ja":0.8,"governor":"schedule","freq_schedule":[0,2]}}`,
		`{"thermal":{"rtheta_ja":-1`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req TraceRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil || req.Thermal == nil {
			return
		}
		if _, err := req.Thermal.loopOptions(); err != nil && !errors.Is(err, guard.ErrConfig) {
			t.Fatalf("%s: loopOptions error %v is not a config error", body, err)
		}
	})
}
