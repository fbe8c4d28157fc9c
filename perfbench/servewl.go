package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"mcpat/internal/chip"
	"mcpat/internal/config"
	"mcpat/internal/guard"
	"mcpat/internal/presets"
	"mcpat/internal/serve"
)

// Novel-config index ranges. The window's clients draw from [0, ...); the
// digest set and each traced pass use ranges no other request touches, so
// every novel config really is cold when it arrives.
const (
	novelDigestBase = 1_000_000
	novelTracedBase = 2_000_000
	novelTracedStep = 100_000
	serveClients    = 2
	tracedRequests  = 400
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// reply is what the output check keeps of one /v1/evaluate response.
type reply struct {
	status int
	sum    uint32 // CRC-32C of the body
	fields replyFields
}

type replyFields struct {
	TDPW     float64 `json:"tdp_w"`
	AreaMM2  float64 `json:"area_mm2"`
	RuntimeW float64 `json:"runtime_w"`
}

func (f replyFields) same(o replyFields) bool {
	return math.Float64bits(f.TDPW) == math.Float64bits(o.TDPW) &&
		math.Float64bits(f.AreaMM2) == math.Float64bits(o.AreaMM2) &&
		math.Float64bits(f.RuntimeW) == math.Float64bits(o.RuntimeW)
}

// serveRig is serve.New's handler on a loopback listener, with one
// keep-alive client (own transport, one connection) per load generator.
type serveRig struct {
	srv     *serve.Server
	hs      *http.Server
	base    string
	served  chan error
	clients []*http.Client
	pool    []request
	want    []reply // each pool item's reply, recorded during warm-up
}

// startServe starts the server and warms the seeded pool through it.
func startServe(seed int64) (*serveRig, error) {
	pool, err := servePool(seed)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{MaxInFlight: serveClients})
	rig := &serveRig{
		srv: srv, hs: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), served: make(chan error, 1), pool: pool,
	}
	go func() { rig.served <- rig.hs.Serve(ln) }()
	for c := 0; c < serveClients; c++ {
		rig.clients = append(rig.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}})
	}
	var buf bytes.Buffer
	for i := range pool {
		rp, err := rig.postDecoded(0, &pool[i], &buf)
		if err != nil {
			rig.close()
			return nil, fmt.Errorf("warm pool item %d (%s %s): %w", i, pool[i].kind, pool[i].preset, err)
		}
		rig.want = append(rig.want, rp)
	}
	return rig, nil
}

// close shuts the listener, drains the service and waits for Serve to
// return.
func (s *serveRig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if e := <-s.served; !errors.Is(e, http.ErrServerClosed) && err == nil {
		err = e
	}
	if e := s.srv.Shutdown(ctx); err == nil {
		err = e
	}
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	return err
}

// post sends one request on client c and reads the whole body into buf.
func (s *serveRig) post(c int, q *request, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, s.base+"/v1/evaluate", bytes.NewReader(q.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", q.contentType())
	resp, err := s.clients[c].Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// postDecoded posts and requires a 200 whose figures match the local
// reference evaluation bit for bit.
func (s *serveRig) postDecoded(c int, q *request, buf *bytes.Buffer) (reply, error) {
	status, err := s.post(c, q, buf)
	if err != nil {
		return reply{}, err
	}
	if status != http.StatusOK {
		return reply{}, fmt.Errorf("status %d: %s", status, buf.String())
	}
	rp := reply{status: status, sum: crc32.Checksum(buf.Bytes(), crcTable)}
	if err := json.Unmarshal(buf.Bytes(), &rp.fields); err != nil {
		return reply{}, err
	}
	return rp, checkAgainstLocal(q, rp.fields)
}

// checkAgainstLocal evaluates the request through the benchmark-local copy
// of the handler's steps and compares the figures.
func checkAgainstLocal(q *request, got replyFields) error {
	req, err := decodeLocal(q)
	if err != nil {
		return err
	}
	resp, err := evalLocal(nil, -1, req)
	if err != nil {
		return err
	}
	want := replyFields{TDPW: resp.TDPW, AreaMM2: resp.AreaMM2, RuntimeW: resp.RuntimeW}
	if !got.same(want) {
		return fmt.Errorf("%s %s: service replied %+v, local evaluation %+v", q.kind, q.preset, got, want)
	}
	return nil
}

// decodeLocal mirrors the handler's request decoding.
func decodeLocal(q *request) (*serve.EvaluateRequest, error) {
	if q.kind == "xml" {
		root, err := config.Parse(bytes.NewReader(q.body))
		if err != nil {
			return nil, err
		}
		cfg, err := config.ToChipConfig(root)
		if err != nil {
			return nil, err
		}
		return &serve.EvaluateRequest{Config: &cfg, Stats: config.ToStats(root)}, nil
	}
	var req serve.EvaluateRequest
	if err := json.NewDecoder(bytes.NewReader(q.body)).Decode(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

// evalLocal mirrors the handler's evaluation: resolve, synthesize, report
// with the output guard, and fill the response.
func evalLocal(tr *tracer, parent int, req *serve.EvaluateRequest) (*serve.EvaluateResponse, error) {
	cfg := req.Config
	if req.Preset != "" {
		s := tr.begin("serve.resolve", parent)
		p, err := presets.ByName(req.Preset)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		cfg = &p.Config
	}
	s := tr.begin("chip.new", parent)
	proc, err := chip.New(*cfg)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("chip.check", parent)
	rep, err := proc.ReportE(req.Stats)
	if err != nil {
		tr.end(s)
		return nil, err
	}
	g := tr.begin("guard.check", s)
	ds := guard.CheckReport(rep, nil)
	tr.end(g)
	tr.end(s)
	if err := ds.Err(); err != nil {
		return nil, err
	}
	resp := &serve.EvaluateResponse{
		Name: cfg.Name, NM: cfg.NM, ClockHz: cfg.ClockHz,
		TDPW: rep.Peak(), AreaMM2: rep.Area * 1e6, Report: rep,
	}
	if rep.RuntimeDynamic > 0 {
		resp.RuntimeW = rep.Runtime()
	}
	return resp, nil
}

// digest folds the pool's replies and a fixed set of novel configs.
func (s *serveRig) digest(seed int64) (string, error) {
	d := newDigest()
	fold := func(rp reply) {
		d.i(rp.status)
		d.f(rp.fields.TDPW)
		d.f(rp.fields.AreaMM2)
		d.f(rp.fields.RuntimeW)
	}
	for _, rp := range s.want {
		fold(rp)
	}
	var buf bytes.Buffer
	for n := 0; n < novelDigestN; n++ {
		q, err := novelRequest(novelDigestBase + n)
		if err != nil {
			return "", err
		}
		rp, err := s.postDecoded(0, &q, &buf)
		if err != nil {
			return "", err
		}
		fold(rp)
	}
	return d.hex(), nil
}

// serveReferenceDigest is the expected serve digest of a seed.
func serveReferenceDigest(seed int64) (string, error) {
	resetMemos()
	rig, err := startServe(seed)
	if err != nil {
		return "", err
	}
	d, err := rig.digest(seed)
	if cerr := rig.close(); err == nil {
		err = cerr
	}
	return d, err
}

// observation is one timed request of the window. It holds no pointers
// and the pool reply is checked as it arrives, so the load generator's own
// memory stays small and nearly independent of how many requests a run
// sends: peak_rss_mb measures the service.
type observation struct {
	at     time.Duration // start, from the window start
	lat    time.Duration
	status int32 // HTTP status; 0 when no usable reply arrived
	ok     bool  // a 200 with the expected reply (novel replies: until checked after the window)
}

// novelReply is a novel config's reply, checked after the window.
type novelReply struct {
	obs    int // index in the client's observations
	novel  int
	fields replyFields
}

// serveClient is one load generator's state across the window's slices.
type serveClient struct {
	mix    *clientMix
	buf    bytes.Buffer
	obs    []observation
	novels []novelReply
	err    error // first failed request
}

func (cl *serveClient) fail(err error) {
	if cl.err == nil {
		cl.err = err
	}
}

// runServe is the serve-evaluate workload: a closed loop of two clients,
// each on its own keep-alive loopback connection, each sending its next
// POST /v1/evaluate only after the previous reply. The window runs in
// slices of calibEvery; between slices both clients pause for the
// reference timing.
func runServe(ctx context.Context, rc runConfig) (*result, error) {
	r := newResult(rc)
	var setup setupClock
	var rig *serveRig
	for i := 0; i < setupReps; i++ {
		if rig != nil {
			if err := rig.close(); err != nil {
				return nil, err
			}
		}
		setup.start()
		resetMemos()
		var err error
		if rig, err = startServe(rc.seed); err != nil {
			return nil, err
		}
		setup.stop()
	}
	defer rig.close()

	if rc.trace {
		return r, traceServe(rc, r, rig)
	}

	clients := make([]*serveClient, serveClients)
	for c := range clients {
		clients[c] = &serveClient{mix: newClientMix(rc.seed, c, serveClients, len(rig.pool), 0)}
	}
	log := newOpLog(rc.window, requestTailQ, serveClients)
	deadline := log.start.Add(rc.window)
	for time.Now().Before(deadline) {
		log.calibrate()
		s0 := time.Now()
		sliceEnd := s0.Add(calibEvery)
		if sliceEnd.After(deadline) {
			sliceEnd = deadline
		}
		var wg sync.WaitGroup
		for c, cl := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				serveSlice(rig, c, cl, log.start, s0, sliceEnd)
			}()
		}
		wg.Wait()
		log.span(s0, time.Since(s0))
	}
	log.end()

	// Output check, outside the window.
	digestOK := true
	var attempted, failed int64
	for _, cl := range clients {
		if cl.err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", cl.err)
		}
		for _, n := range cl.novels {
			q, err := novelRequest(n.novel)
			if err == nil {
				err = checkAgainstLocal(&q, n.fields)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				cl.obs[n.obs].ok = false
			}
		}
		for _, o := range cl.obs {
			attempted++
			if !o.ok {
				failed++
				if o.status != 0 && o.status != http.StatusTooManyRequests {
					digestOK = false
				}
				log.add(log.start.Add(o.at), -1, 0)
				continue
			}
			log.add(log.start.Add(o.at), o.lat, 1)
		}
	}
	d, err := rig.digest(rc.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		digestOK = false
	} else if !checkDigest("serve", rc.seed, d) {
		digestOK = false
	}
	if err := fillEndToEnd(r, &setup, log); err != nil {
		return nil, err
	}
	r.finish(attempted, failed, digestOK)
	return r, nil
}

// novelPerSlice is how many novel configs each client sends per slice,
// at evenly spaced times: 40 a second in all, about 2% of the requests. A
// fixed rate, rather than a share of the requests, keeps the number a run
// sends, and so the memo growth and peak RSS they cause, the same however
// fast the host serves the pool.
const novelPerSlice = 2

// serveSlice is client c's closed loop over the slice from start until
// end: it sends its next request only after the previous reply.
func serveSlice(rig *serveRig, c int, cl *serveClient, windowStart, start, end time.Time) {
	sent := 0
	for time.Now().Before(end) {
		pool, novel := -1, -1
		// Client c's k-th novel config is due at (2(k*clients+c)+1) /
		// (2*novelPerSlice*clients) of the slice, so no two clients'
		// are due together.
		due := start.Add(calibEvery * time.Duration(2*(sent*serveClients+c)+1) / (2 * novelPerSlice * serveClients))
		if sent < novelPerSlice && !time.Now().Before(due) {
			novel = cl.mix.nextNovel()
			sent++
		} else {
			pool = cl.mix.poolIndex()
		}
		q := &rig.pool[max(pool, 0)]
		if novel >= 0 {
			nq, err := novelRequest(novel)
			if err != nil {
				cl.fail(err)
				cl.obs = append(cl.obs, observation{at: time.Since(windowStart)})
				continue
			}
			q = &nq
		}
		t0 := time.Now()
		status, err := rig.post(c, q, &cl.buf)
		o := observation{at: t0.Sub(windowStart), lat: time.Since(t0), status: int32(status)}
		switch {
		case err != nil:
			o.status = 0
			cl.fail(err)
		case status != http.StatusOK:
		case novel >= 0:
			var f replyFields
			if err := json.Unmarshal(cl.buf.Bytes(), &f); err != nil {
				o.status = 0
				cl.fail(err)
				break
			}
			o.ok = true
			cl.novels = append(cl.novels, novelReply{obs: len(cl.obs), novel: novel, fields: f})
		default:
			o.ok = crc32.Checksum(cl.buf.Bytes(), crcTable) == rig.want[pool].sum
		}
		cl.obs = append(cl.obs, o)
	}
}

// traceServe is the traced pass of serve-evaluate: one client's seeded
// request sequence sent serially three ways. The local replay of the
// handler's steps carries the spans; the real handler on an in-memory
// recorder gives the handler time; real HTTP on loopback gives the client
// latency, and /metrics the server-side time it contains.
func traceServe(rc runConfig, r *result, rig *serveRig) error {
	d, err := rig.digest(rc.seed)
	digestOK := err == nil && checkDigest("serve", rc.seed, d)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	vals := map[string][]float64{}
	put := func(name string, v float64) { vals[name] = append(vals[name], v) }
	var attrs []*attribution
	var attempted, failed int64
	var last *tracer
	m := float64(tracedRequests)
	deadline := time.Now().Add(rc.window)
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		seq := func(pass int) ([]request, error) {
			mix := newClientMix(rc.seed, 0, 1, len(rig.pool), novelTracedBase+(4*rep+pass)*novelTracedStep)
			qs := make([]request, tracedRequests)
			for i := range qs {
				pi, nv := mix.draw()
				if pi >= 0 {
					qs[i] = rig.pool[pi]
					continue
				}
				q, err := novelRequest(nv)
				if err != nil {
					return nil, err
				}
				qs[i] = q
			}
			return qs, nil
		}

		// 1. The local replay, untraced and traced, each on its own
		// novel configs.
		qs, err := seq(0)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, _, err := replayRequests(nil, qs); err != nil {
			return err
		}
		untraced := time.Since(t0).Seconds() / m
		if qs, err = seq(1); err != nil {
			return err
		}
		tr := newTracer(tracedRequests * 10)
		c0 := snapCounters()
		t0 = time.Now()
		respBytes, novel, err := replayRequests(tr, qs)
		if err != nil {
			return err
		}
		traced := time.Since(t0).Seconds() / m
		delta := snapCounters().sub(c0)
		last = tr

		// 2. The real handler on an in-memory recorder.
		if qs, err = seq(2); err != nil {
			return err
		}
		h := rig.srv.Handler()
		var handler float64
		for i := range qs {
			req := httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewReader(qs[i].body))
			req.Header.Set("Content-Type", qs[i].contentType())
			rec := httptest.NewRecorder()
			t0 := time.Now()
			h.ServeHTTP(rec, req)
			handler += time.Since(t0).Seconds()
			if rec.Code != http.StatusOK {
				failed++
			}
		}
		handler /= m

		// 3. Real HTTP, serially, on client 0's connection; the novel
		// configs are fresh again.
		if qs, err = seq(3); err != nil {
			return err
		}
		before, err := rig.evalServerTime()
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		var client float64
		shed := 0
		rt0 := readRT()
		for i := range qs {
			t0 := time.Now()
			status, err := rig.post(0, &qs[i], &buf)
			client += time.Since(t0).Seconds()
			if err != nil || status != http.StatusOK {
				failed++
				if status == http.StatusTooManyRequests {
					shed++
				}
			}
		}
		rt1 := readRT()
		client /= m
		after, err := rig.evalServerTime()
		if err != nil {
			return err
		}
		var server float64
		if n := after.count - before.count; n > 0 {
			server = (after.sumMS - before.sumMS) / 1e3 / float64(n)
		}
		attempted += 4 * tracedRequests

		self, _ := tr.selfTimes()
		put("serve.handler_us", 1e6*handler)
		put("serve.decode_json_us", 1e6*perCall(tr, "serve.decode_json"))
		put("serve.decode_xml_us", 1e6*perCall(tr, "serve.decode_xml"))
		put("serve.encode_us", 1e6*perCall(tr, "serve.encode"))
		put("serve.transport_us", 1e6*(client-server))
		put("chip.new_us", 1e6*perCall(tr, "chip.new"))
		put("chip.check_us", 1e6*perCall(tr, "chip.check"))
		put("guard.check_us", 1e6*perCall(tr, "guard.check"))
		if rep == 0 {
			r.set("serve.response_bytes", float64(respBytes)/m)
			r.set("serve.novel_frac", float64(novel)/m)
			r.set("serve.shed", float64(shed))
			setCounters(r, delta)
			setRuntime(r, rt0, rt1, tracedRequests)
		}
		a := &attribution{workload: rc.workload, opUnit: "1 request", wall: client, traced: traced, untraced: untraced}
		a.add("serve (decode)", (self["serve.decode_json"]+self["serve.decode_xml"])/m)
		a.add("serve (preset lookup)", self["serve.resolve"]/m)
		a.add("chip (New, as the request sees it)", self["chip.new"]/m)
		a.add("chip (report)", self["chip.check"]/m)
		a.add("guard (output check)", self["guard.check"]/m)
		a.add("serve (encode)", self["serve.encode"]/m)
		// The service cannot be spanned from outside, so its remaining
		// terms are differences of whole measurements: the real handler
		// on a recorder over the local steps, the handler on a real
		// connection (/metrics) over the recorder, and the client's
		// latency over the server's own time.
		a.add("serve (handler - local steps)", handler-traced)
		a.add("serve (socket writes - recorder)", server-handler)
		a.add("HTTP transport (client - server)", client-server)
		attrs = append(attrs, a)
	}
	for name, v := range vals {
		r.set(name, median(v))
	}
	a := medianAttribution(attrs)
	a.print(os.Stdout)
	a.fill(r)
	if err := last.write(rc.spansDir, fmt.Sprintf("%s-seed%d.jsonl", rc.workload, rc.seed)); err != nil {
		return err
	}
	if err := runLadder(r); err != nil {
		return err
	}
	r.finish(attempted, failed, digestOK)
	return nil
}

// replayRequests runs the local copy of the handler's steps over qs and
// returns the encoded response bytes and the number of novel configs.
func replayRequests(tr *tracer, qs []request) (respBytes, novel int, err error) {
	for i := range qs {
		q := &qs[i]
		root := tr.begin("serve.request", -1)
		name := "serve.decode_json"
		if q.kind == "xml" {
			name = "serve.decode_xml"
		}
		s := tr.begin(name, root)
		req, err := decodeLocal(q)
		tr.end(s)
		if err != nil {
			return 0, 0, err
		}
		resp, err := evalLocal(tr, root, req)
		if err != nil {
			return 0, 0, err
		}
		s = tr.begin("serve.encode", root)
		b, err := json.Marshal(resp)
		tr.end(s)
		tr.end(root)
		if err != nil {
			return 0, 0, err
		}
		respBytes += len(b)
		if q.kind == "novel" {
			novel++
		}
	}
	return respBytes, novel, nil
}

// serverTime is the service's own cumulative latency for /v1/evaluate.
type serverTime struct {
	sumMS float64
	count uint64
}

func (s *serveRig) evalServerTime() (serverTime, error) {
	resp, err := s.clients[0].Get(s.base + "/metrics")
	if err != nil {
		return serverTime{}, err
	}
	defer resp.Body.Close()
	var snap serve.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return serverTime{}, err
	}
	l := snap.Latency["POST /v1/evaluate"]
	return serverTime{sumMS: l.SumMS, count: l.Count}, nil
}
