package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"mcpat/internal/chip"
	"mcpat/internal/explore"
	"mcpat/internal/guard"
)

// wireSpec sets every field a shard request carries.
var wireSpec = ShardSpec{
	Params: explore.Params{NM: 22, ClockHz: 2.5e9, Threads: 4, MemBW: 64e9},
	Space: explore.Space{
		Cores:        []int{2, 4},
		L2PerCoreKB:  []int{64, 256},
		Fabrics:      []chip.InterconnectKind{chip.Mesh, chip.Ring},
		ClusterSizes: []int{1, 2},
	},
	Cons:             explore.Constraints{MaxAreaMM2: 400, MaxTDP: 250},
	Obj:              explore.MinED2AP,
	Start:            3,
	End:              7,
	Workers:          2,
	CandidateTimeout: 5 * time.Second,
}

// wireSpecJSON is wireSpec's request body: the /v1/dse sweep keys in
// their order, then the shard keys.
const wireSpecJSON = `{"nm":22,"clock_hz":2500000000,"threads":4,"mem_bw_bytes_per_s":64000000000,"cores":[2,4],"l2_per_core_kb":[64,256],"fabrics":["mesh","ring"],"cluster_sizes":[1,2],"max_area_mm2":400,"max_tdp_w":250,"objective":"1/ED2AP","start":3,"end":7,"workers":2,"candidate_timeout_ms":5000}`

// TestShardRequestWireBytes pins the request bytes in both directions,
// so coordinators and workers of different builds keep interoperating.
// A deadline that is not a whole number of milliseconds travels exactly
// in candidate_timeout_ns and rounded up in candidate_timeout_ms.
func TestShardRequestWireBytes(t *testing.T) {
	exact := wireSpec
	exact.CandidateTimeout = 500 * time.Microsecond
	for _, tc := range []struct {
		spec ShardSpec
		body string
	}{
		{wireSpec, wireSpecJSON},
		{exact, withTimeout(`"candidate_timeout_ms":1,"candidate_timeout_ns":500000`)},
	} {
		b, err := json.Marshal(tc.spec.Wire())
		if err != nil || string(b) != tc.body {
			t.Fatalf("encoded %s (%v)\nwant    %s", b, err, tc.body)
		}
		var req ShardRequest
		if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
			t.Fatal(err)
		}
		spec, err := req.Spec()
		if err != nil || !reflect.DeepEqual(spec, tc.spec) {
			t.Fatalf("decoded %+v (%v)\nwant    %+v", spec, err, tc.spec)
		}
	}
}

// TestShardDeadlineAcrossBuilds: a worker decodes a body without
// candidate_timeout_ns, as coordinators before it send, as it always
// did, and a worker that predates the field still reads a sub-
// millisecond deadline as one, rounded up, instead of none.
func TestShardDeadlineAcrossBuilds(t *testing.T) {
	var req ShardRequest
	if err := json.Unmarshal([]byte(withTimeout(`"candidate_timeout_ms":3`)), &req); err != nil {
		t.Fatal(err)
	}
	if spec, err := req.Spec(); err != nil || spec.CandidateTimeout != 3*time.Millisecond {
		t.Fatalf("millisecond body decoded to %v (%v), want 3ms", spec.CandidateTimeout, err)
	}
	// The request type as workers before candidate_timeout_ns decode it.
	var old struct {
		explore.Sweep
		Start              int `json:"start"`
		End                int `json:"end"`
		Workers            int `json:"workers,omitempty"`
		CandidateTimeoutMS int `json:"candidate_timeout_ms,omitempty"`
	}
	spec := wireSpec
	spec.CandidateTimeout = 500 * time.Microsecond
	b, err := json.Marshal(spec.Wire())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &old); err != nil || old.CandidateTimeoutMS != 1 {
		t.Fatalf("earlier worker read candidate_timeout_ms %d (%v), want 1", old.CandidateTimeoutMS, err)
	}
}

// withTimeout is wireSpecJSON with its deadline keys replaced.
func withTimeout(keys string) string {
	return strings.Replace(wireSpecJSON, `"candidate_timeout_ms":5000`, keys, 1)
}

// FuzzShardRequest feeds arbitrary bodies through the worker's decode
// and its conversion to engine inputs: neither may panic, and every
// conversion error is a config error. Bodies encoding/json rejects are
// the handler's bad_request and never reach the conversion.
func FuzzShardRequest(f *testing.F) {
	for _, seed := range []string{
		wireSpecJSON,
		`{"objective":"throughput","start":0,"end":1}`,
		`{"cores":[2],"fabrics":["warp"],"start":0,"end":1}`,
		`{"cores":[2],"objective":"fastest","start":0,"end":1}`,
		`{"cores":[2,4],"start":0,"end":1000}`,
		`{"cores":[2`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req ShardRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		spec, err := req.Spec()
		if err == nil {
			_, err = explore.PlannedEvaluations(spec.Space,
				&explore.Options{Shard: &explore.ShardRange{Start: spec.Start, End: spec.End}})
		}
		if err != nil && !errors.Is(err, guard.ErrConfig) {
			t.Fatalf("%s: error %v is not a config error", body, err)
		}
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// FuzzShardStream feeds arbitrary worker replies, streams and error
// bodies alike, to the client: it may not panic, and it returns exactly
// one of a result and an error.
func FuzzShardStream(f *testing.F) {
	spec := ShardSpec{Space: explore.Space{Cores: []int{1, 2}, L2PerCoreKB: []int{64}}, End: 2}
	var stream []byte
	frame := func(fr Frame) {
		b, err := json.Marshal(fr)
		if err != nil {
			f.Fatal(err)
		}
		stream = append(append(stream, b...), '\n')
	}
	res, err := EvalShard(context.Background(), spec, func(done, total int) {
		frame(Frame{Type: "progress", Done: done, Total: total})
	})
	if err != nil {
		f.Fatal(err)
	}
	frame(Frame{Type: "result", Result: res})
	f.Add(http.StatusOK, stream)
	stream = nil
	frame(Frame{Type: "error", Error: guard.Classify(guard.Configf("dse.shard", "unknown fabric"))})
	f.Add(http.StatusOK, stream)
	// Error bodies as mcpatd -worker answers before streaming.
	for _, body := range []string{
		`{"error":{"kind":"bad_request","message":"parse JSON: unexpected EOF"}}`,
		`{"error":{"kind":"config","path":"dse.shard","message":"invalid configuration at dse.shard: unknown fabric \"warp\" (none|bus|crossbar|mesh|ring)"}}`,
		`{"error":{"kind":"config","path":"dse.shard","message":"invalid configuration at dse.shard: shard [0,1000) out of range for a 2-point space"}}`,
	} {
		f.Add(http.StatusBadRequest, []byte(body+"\n"))
	}
	f.Add(http.StatusNotFound, []byte(`{"error":{"kind":"bad_request","message":"worker mode disabled (start mcpatd -worker)"}}`+"\n"))
	f.Add(http.StatusBadGateway, []byte("<html>bad gateway</html>"))

	f.Fuzz(func(t *testing.T, status int, body []byte) {
		if status < 200 || status > 599 {
			status = http.StatusOK
		}
		c := &Client{Base: "http://worker", HTTP: &http.Client{Transport: roundTripFunc(
			func(*http.Request) (*http.Response, error) {
				return &http.Response{StatusCode: status, Header: http.Header{},
					Body: io.NopCloser(bytes.NewReader(body))}, nil
			})}}
		res, err := c.EvalShard(context.Background(), spec, func(int, int) {})
		if (res == nil) == (err == nil) {
			t.Fatalf("status %d, body %q: result %v and error %v; want exactly one", status, body, res, err)
		}
	})
}
