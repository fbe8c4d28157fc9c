// Command perfbench is the mcpat benchmark. It runs one of four seeded
// workloads against the library and the HTTP service from outside,
// checks every model output against a stored digest, and prints its
// metrics by name and unit. Build and run it from the repository root:
//
//	bash perfbench/run.sh --workload dse-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the workload runs for --seconds and prints the
// end-to-end metrics. With --trace 1 it instead replays the same seeded
// inputs serially through each layer's public functions, wrapping every
// call in an in-memory span, and prints the per-layer metrics plus an
// attribution table. The last line of standard output is always one JSON
// object with the keys correct, attempted, failed and metrics.
//
// BENCHMARK.json at the repository root lists the workloads and metrics;
// METRICS.md documents them, and perfbench_test.go is the fast self-test.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mcpat/internal/validation"
)

// setupReps is how many times each workload repeats its set-up in one run;
// setup_s reports the median.
const setupReps = 9

// runConfig carries the command-line inputs of one run.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	spansDir string // where the traced pass writes its spans
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics an untraced run prints, with their units.
// Workload-specific meanings are documented in METRICS.md.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"peak_rss_mb", "MiB"},
	{"tdp_err_pct", "%"},
	{"area_err_pct", "%"},
}

// perLayer lists the metrics a traced run prints. A workload that never
// enters a layer reports 0 for that layer's metrics.
var perLayer = []struct{ name, unit string }{
	{"tech.node_build_us", "us"},
	{"tech.node_build_allocs", "allocs"},
	{"tech.fingerprint_ns", "ns"},
	{"tech.fingerprint_allocs", "allocs"},
	{"circuit.buffer_chain_ns", "ns"},
	{"circuit.buffer_chain_allocs", "allocs"},
	{"circuit.repeated_wire_ns", "ns"},
	{"circuit.repeated_wire_allocs", "allocs"},
	{"array.solves", "count"},
	{"array.hit_rate", "fraction"},
	{"array.orgs_per_solve", "count"},
	{"array.prune_rate", "fraction"},
	{"array.optimize_us", "us"},
	{"array.llc_solve_us", "us"},
	{"array.llc_solve_allocs", "allocs"},
	{"component.misses", "count"},
	{"component.core.misses", "count"},
	{"component.cache.misses", "count"},
	{"component.fabric.misses", "count"},
	{"component.mc.misses", "count"},
	{"component.clock.misses", "count"},
	{"component.hit_rate", "fraction"},
	{"component.synth_us", "us"},
	{"component.hit_ns", "ns"},
	{"component.hit_allocs", "allocs"},
	{"core.synthesize_us", "us"},
	{"core.synthesize_allocs", "allocs"},
	{"cache.synthesize_us", "us"},
	{"cache.synthesize_allocs", "allocs"},
	{"chip.new_us", "us"},
	{"chip.assemble_us", "us"},
	{"chip.check_us", "us"},
	{"chip.report_us", "us"},
	{"chip.report_allocs", "allocs"},
	{"guard.check_us", "us"},
	{"perfsim.run_us", "us"},
	{"explore.overhead_us", "us"},
	{"explore.evaluated", "count"},
	{"explore.feasible", "count"},
	{"explore.failures", "count"},
	{"gem5.map_ms", "ms"},
	{"trace.engine_build_ms", "ms"},
	{"m5compat.parse_us", "us"},
	{"m5compat.convert_us", "us"},
	{"trace.score_us", "us"},
	{"trace.score_allocs", "allocs"},
	{"trace.loop_us", "us"},
	{"trace.loop_allocs", "allocs"},
	{"trace.throttled_frac", "fraction"},
	{"trace.encode_us", "us"},
	{"thermal.step_ns", "ns"},
	{"thermal.step_allocs", "allocs"},
	{"serve.handler_us", "us"},
	{"serve.decode_json_us", "us"},
	{"serve.decode_xml_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.transport_us", "us"},
	{"serve.response_bytes", "bytes"},
	{"serve.novel_frac", "fraction"},
	{"serve.shed", "count"},
	{"runtime.allocs_per_op", "allocs"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"traced.op_us", "us"},
	{"traced.rows_sum_frac", "fraction"},
	{"traced.overhead_frac", "fraction"},
	{"error_rate", "fraction"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, runConfig) (*result, error){
	"dse-cold":       func(ctx context.Context, rc runConfig) (*result, error) { return runDSE(ctx, rc, false) },
	"dse-warm":       func(ctx context.Context, rc runConfig) (*result, error) { return runDSE(ctx, rc, true) },
	"trace-replay":   runTrace,
	"serve-evaluate": runServe,
}

func main() {
	var (
		rc     runConfig
		secs   int
		trace  int
		record int
	)
	flag.StringVar(&rc.workload, "workload", "", "dse-cold, dse-warm, trace-replay or serve-evaluate")
	flag.Int64Var(&rc.seed, "seed", 1, "input seed")
	flag.IntVar(&secs, "seconds", 10, "measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass instead of the end-to-end window")
	flag.StringVar(&rc.spansDir, "spans-dir", ".bench_build/spans", "directory the traced pass writes its spans to")
	flag.IntVar(&record, "record-digests", 0, "recompute the expected digests for seeds [0, N) into perfbench/digests.json and exit")
	flag.Parse()

	if record > 0 {
		if err := recordDigests(context.Background(), record, "perfbench/digests.json"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if _, ok := workloads[rc.workload]; !ok || secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {dse-cold|dse-warm|trace-replay|serve-evaluate} --seed N --seconds S --trace {0|1}\n")
		os.Exit(2)
	}
	rc.window = time.Duration(secs) * time.Second
	rc.trace = trace == 1
	if err := execute(context.Background(), rc, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// execute runs one workload and writes the host stamp line and, last, the
// result line to w.
func execute(ctx context.Context, rc runConfig, w io.Writer) error {
	stamp, err := json.Marshal(map[string]any{"host": hostStamp(), "workload": rc.workload, "seed": rc.seed, "trace": rc.trace})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(stamp))
	res, err := workloads[rc.workload](ctx, rc)
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

// newResult starts a result with every metric of the run's mode present,
// so a layer the workload never enters still reports (as 0).
func newResult(rc runConfig) *result {
	r := &result{Metrics: map[string]metric{}}
	list := endToEnd
	if rc.trace {
		list = perLayer
	}
	for _, m := range list {
		r.Metrics[m.name] = metric{Unit: m.unit}
	}
	return r
}

// set stores a metric value; unknown names are a programming error.
func (r *result) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("perfbench: unregistered metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.Value = v
	r.Metrics[name] = m
}

// finish fills attempted/failed/correct; a digest mismatch fails every op.
func (r *result) finish(attempted, failed int64, digestOK bool) {
	if !digestOK {
		failed = attempted
	}
	r.Attempted, r.Failed = attempted, failed
	if r.Attempted < 1 {
		r.Attempted = 1
		r.Failed = 1
	}
	r.Correct = digestOK && r.Failed == 0
	if _, ok := r.Metrics["error_rate"]; ok {
		r.set("error_rate", float64(r.Failed)/float64(r.Attempted))
	}
}

// opLog records the timed operations of an end-to-end window.
type opLog struct {
	start   time.Time // window start
	window  time.Duration
	tailQ   float64 // quantile latency_tail_ms reports
	clients int     // concurrent load generators; >1 means ops overlap
	ops     []opRec
	spans   []opRec  // load periods of concurrent clients (lat is the length)
	refs    []refRec // host-speed samples, from calibrate
	rss     float64  // peak RSS in MiB at the end of the window

	// steal[k] is the machine's steal share during sub-window k, written
	// by the sampler goroutine until done is closed.
	steal []float64
	stop  chan struct{}
	done  chan struct{}
}

type opRec struct {
	at   time.Duration // op start, from the window start
	lat  float64       // seconds; +Inf for a failed op
	work int           // work items the op completed
}

// Tail percentiles of latency_tail_ms. Request latency takes the 99th:
// novel configs put cold synthesis there. A batch run has only about a
// thousand ops (sweeps, streams), whose slowest tenth mostly records the
// hypervisor's steal, so it takes the upper quartile.
const (
	requestTailQ = 0.99
	batchTailQ   = 0.75
)

// subWindows splits the window. The hypervisor of a shared machine steals
// CPU time in bursts of seconds, which inflate every wall-time figure, so
// the end-to-end timings come from the calm sub-windows only: those whose
// measured steal is at most the run's median sub-window steal, or at most
// calmSteal. In a calm run that is every sub-window. Throughput is the
// median of the calm sub-windows' throughputs; latency quantiles are taken
// over all their ops.
const (
	subWindows = 10
	calmSteal  = 0.01
)

// newOpLog starts the window and its steal sampler.
func newOpLog(window time.Duration, tailQ float64, clients int) *opLog {
	l := &opLog{start: time.Now(), window: window, tailQ: tailQ, clients: clients,
		steal: make([]float64, subWindows), stop: make(chan struct{}), done: make(chan struct{})}
	go l.sample()
	return l
}

// sample records the steal share of each sub-window as it ends.
func (l *opLog) sample() {
	defer close(l.done)
	sub := l.window / subWindows
	s0, t0 := hostCPU()
	for k := range l.steal {
		t := time.NewTimer(time.Until(l.start.Add(time.Duration(k+1) * sub)))
		select {
		case <-t.C:
		case <-l.stop:
			t.Stop()
			return
		}
		s1, t1 := hostCPU()
		l.steal[k] = float64(s1-s0) / float64(max(t1-t0, 1))
		s0, t0 = s1, t1
	}
}

// calibrate samples the host's speed when calibEvery has passed since it
// last did. Call it between ops, with the load paused.
func (l *opLog) calibrate() {
	at := time.Since(l.start)
	if n := len(l.refs); n > 0 && at-l.refs[n-1].at < calibEvery {
		return
	}
	for _, v := range hostSpeeds() {
		l.refs = append(l.refs, refRec{at: at, speed: v})
	}
}

// add records an op that started at t0 and took d; failed ops pass
// d < 0 and are charged the whole window, beyond any latency limit.
func (l *opLog) add(t0 time.Time, d time.Duration, work int) {
	lat := d.Seconds()
	if d < 0 {
		lat, work = l.window.Seconds(), 0
	}
	l.ops = append(l.ops, opRec{at: t0.Sub(l.start), lat: lat, work: work})
}

// end closes the window before its output checks run: it stops the
// steal sampler and reads the peak RSS, so the checks' own memory is not
// counted.
func (l *opLog) end() {
	close(l.stop)
	<-l.done
	l.rss = peakRSSMiB()
}

// span records a period from t0 of length d during which concurrent
// clients were loading the program; throughput is their ops over it.
func (l *opLog) span(t0 time.Time, d time.Duration) {
	l.spans = append(l.spans, opRec{at: t0.Sub(l.start), lat: d.Seconds()})
}

// fillEndToEnd writes the metrics every untraced run reports. Each
// sub-window's timings are scaled to reference-host time by the mean host
// speed sampled in it (calib.go). The sample count of the latency
// quantiles goes to stderr.
func fillEndToEnd(r *result, setup *setupClock, log *opLog) error {
	r.set("setup_s", setup.seconds())
	type subResult struct {
		steal, thr, speed float64
		lat               []float64 // in reference-host time
	}
	var subs []subResult
	sub := log.window / subWindows
	in := func(at time.Duration, k int) bool {
		return at >= time.Duration(k)*sub && (at < time.Duration(k+1)*sub || k == subWindows-1)
	}
	var allSpeeds []float64
	for _, x := range log.refs {
		allSpeeds = append(allSpeeds, x.speed)
	}
	work := 0
	for k := 0; k < subWindows; k++ {
		var lat, speeds []float64
		var w int
		var busy float64
		for _, op := range log.ops {
			if in(op.at, k) {
				lat = append(lat, op.lat)
				w += op.work
				if log.clients == 1 {
					busy += op.lat
				}
			}
		}
		for _, s := range log.spans {
			if in(s.at, k) {
				busy += s.lat
			}
		}
		for _, x := range log.refs {
			if in(x.at, k) {
				speeds = append(speeds, x.speed)
			}
		}
		if len(lat) == 0 || busy <= 0 {
			continue
		}
		if len(speeds) == 0 {
			speeds = allSpeeds
		}
		v := mean(speeds)
		for i := range lat {
			lat[i] *= v
		}
		work += w
		subs = append(subs, subResult{log.steal[k], float64(w) / busy / v, v, lat})
	}
	var steals []float64
	for _, s := range subs {
		steals = append(steals, s.steal)
	}
	limit := max(median(steals), calmSteal)
	var thr, raw, lat, speed []float64
	for _, s := range subs {
		if s.steal <= limit {
			thr = append(thr, s.thr)
			raw = append(raw, s.thr*s.speed)
			lat = append(lat, s.lat...)
			speed = append(speed, s.speed)
		}
	}
	r.set("throughput_per_s", median(thr))
	r.set("latency_p50_ms", 1e3*quantile(lat, 0.5))
	r.set("latency_tail_ms", 1e3*quantile(lat, log.tailQ))
	steal, total := hostCPU()
	fmt.Fprintf(os.Stderr, "perfbench: %d timed ops, %d work items, %d host-speed samples; figures from the %d of %d sub-windows with steal <= %.1f%% (%d latency samples); tail = p%g; host speed %.3f of the reference (raw throughput %.1f/s); host steal %.1f%% of CPU time during the run\n",
		len(log.ops), work, len(log.refs), len(thr), len(subs), 100*limit, len(lat), 100*log.tailQ, mean(speed), median(raw),
		100*float64(steal-startSteal)/float64(max(total-startTotal, 1)))
	tdp, area, err := validationError()
	if err != nil {
		return err
	}
	r.set("tdp_err_pct", tdp)
	r.set("area_err_pct", area)
	r.set("peak_rss_mb", log.rss)
	return nil
}

// hostCPU reads the machine-wide steal and total CPU ticks from /proc/stat.
// Steal is time the hypervisor ran other guests on this machine's CPUs;
// it inflates every wall-time figure, so the end-to-end timings rank
// sub-windows by it and runs report it on stderr.
func hostCPU() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

var startSteal, startTotal = hostCPU()

// validationError is the mean absolute TDP and die-area error (percent)
// over the four reference chips, computed outside any timed window.
func validationError() (tdpPct, areaPct float64, err error) {
	ts := validation.All()
	for _, t := range ts {
		v, err := validation.Compare(t)
		if err != nil {
			return 0, 0, err
		}
		tdpPct += math.Abs(v.TDPErr)
		areaPct += math.Abs(v.AreaErr)
	}
	n := float64(len(ts))
	return tdpPct / n, areaPct / n, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// peakRSSMiB is the process's peak resident set (Linux reports ru_maxrss
// in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hostStamp identifies the machine, toolchain and code a result came from.
// The checkout need not be a git repository, so the code is identified by
// a digest of its Go sources.
func hostStamp() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     sourceDigest(),
	}
}

// rtSnap is a snapshot of the Go runtime counters the per-layer runtime
// metrics are deltas of.
type rtSnap struct {
	mallocs, bytes  uint64
	gcCPU, totalCPU float64
}

var rtSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRT() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(rtSamples)
	s := rtSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
	if rtSamples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = rtSamples[0].Value.Float64()
		s.totalCPU = rtSamples[1].Value.Float64()
	}
	return s
}

// setRuntime reports allocation and GC-CPU figures over ops operations.
func setRuntime(r *result, before, after rtSnap, ops int) {
	if ops <= 0 {
		return
	}
	r.set("runtime.allocs_per_op", float64(after.mallocs-before.mallocs)/float64(ops))
	r.set("runtime.alloc_bytes_per_op", float64(after.bytes-before.bytes)/float64(ops))
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		r.set("runtime.gc_cpu_frac", (after.gcCPU-before.gcCPU)/cpu)
	}
}
