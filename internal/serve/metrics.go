package serve

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mcpat/internal/distrib"
	"mcpat/internal/explore"
)

// latencyBucketsMS are the upper bounds (milliseconds) of the request
// latency histogram; the implicit last bucket is +Inf.
var latencyBucketsMS = []float64{1, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// histogram is a fixed-bucket latency histogram.
type histogram struct {
	counts [13]uint64 // len(latencyBucketsMS) + 1 for +Inf
	sumMS  float64
	count  uint64
}

func (h *histogram) observe(ms float64) {
	i := sort.SearchFloat64s(latencyBucketsMS, ms)
	h.counts[i]++
	h.sumMS += ms
	h.count++
}

// metrics is the expvar-style instrumentation of the server: counters
// keyed by route and status, an in-flight gauge, per-route latency
// histograms, job lifecycle counters, and the synthesis-cache deltas
// since the server started. Everything is monotonic except the gauges.
type metrics struct {
	start time.Time
	base  explore.Counters

	inFlight atomic.Int64

	// traceStreams counts /v1/trace streams that reached the streaming
	// phase (setup succeeded); traceSamples counts interval records
	// written across all of them. traceThermalStreams counts the subset
	// of streams running the closed thermal/DVFS loop, and
	// traceThrottled the samples the governor derated below nominal
	// frequency.
	traceStreams        atomic.Uint64
	traceSamples        atomic.Uint64
	traceThermalStreams atomic.Uint64
	traceThrottled      atomic.Uint64

	// shardsServed counts /v1/dse/shard requests that reached the
	// streaming phase; shardsFailed the subset that ended in an error
	// frame; shardCandidates the design points evaluated across all of
	// them (worker-side view of distributed sweeps).
	shardsServed    atomic.Uint64
	shardsFailed    atomic.Uint64
	shardCandidates atomic.Uint64

	// coord, when non-nil, is the long-lived coordinator metrics
	// instance (set when the server fans DSE jobs out to remote
	// workers).
	coord *distrib.Metrics

	jobsSubmitted atomic.Uint64
	jobsDone      atomic.Uint64
	jobsFailed    atomic.Uint64
	jobsCanceled  atomic.Uint64
	jobsRejected  atomic.Uint64 // submissions shed with 429
	jobsRecovered atomic.Uint64 // journaled jobs restored at startup

	// queueDepth and jobsRunning are wired to the job store by the
	// server; nil until then.
	queueDepth  func() int
	jobsRunning func() int

	mu       sync.Mutex
	requests map[string]map[string]uint64 // route -> status -> count
	latency  map[string]*histogram        // route -> histogram
}

func newMetrics() *metrics {
	return &metrics{
		start:    time.Now(),
		base:     explore.ReadCounters(),
		requests: make(map[string]map[string]uint64),
		latency:  make(map[string]*histogram),
	}
}

// observe records one completed request.
func (m *metrics) observe(route, status string, dur time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byStatus := m.requests[route]
	if byStatus == nil {
		byStatus = make(map[string]uint64)
		m.requests[route] = byStatus
	}
	byStatus[status]++
	h := m.latency[route]
	if h == nil {
		h = &histogram{}
		m.latency[route] = h
	}
	h.observe(float64(dur) / float64(time.Millisecond))
}

// LatencyJSON summarizes one route's latency histogram.
type LatencyJSON struct {
	Count uint64  `json:"count"`
	SumMS float64 `json:"sum_ms"`
	// Buckets holds cumulative counts per upper bound, Prometheus-style
	// ("1ms", ..., "+Inf").
	Buckets map[string]uint64 `json:"buckets"`
}

// JobMetricsJSON is the job subsystem section of the snapshot.
type JobMetricsJSON struct {
	Submitted uint64 `json:"submitted"`
	Done      uint64 `json:"done"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"`
	Rejected  uint64 `json:"rejected"`
	// Recovered counts journaled jobs restored at startup (included in
	// neither Submitted nor Rejected).
	Recovered  uint64 `json:"recovered,omitempty"`
	Running    int    `json:"running"`
	QueueDepth int    `json:"queue_depth"`
}

// TraceMetricsJSON is the /v1/trace section of the snapshot.
type TraceMetricsJSON struct {
	Streams uint64 `json:"streams"`
	Samples uint64 `json:"samples"`
	// ThermalStreams counts closed-loop (thermal/DVFS) streams;
	// ThrottledSamples counts intervals the governor ran below nominal
	// frequency.
	ThermalStreams   uint64 `json:"thermal_streams"`
	ThrottledSamples uint64 `json:"throttled_samples"`
}

// ShardMetricsJSON is the worker-side /v1/dse/shard section of the
// snapshot.
type ShardMetricsJSON struct {
	Served     uint64 `json:"served"`
	Failed     uint64 `json:"failed"`
	Candidates uint64 `json:"candidates"`
}

// MetricsSnapshot is the GET /metrics body.
type MetricsSnapshot struct {
	UptimeSec float64 `json:"uptime_sec"`
	InFlight  int64   `json:"in_flight"`
	// Requests counts completed requests by route and status code.
	Requests map[string]map[string]uint64 `json:"requests"`
	Latency  map[string]LatencyJSON       `json:"latency_ms"`
	Jobs     JobMetricsJSON               `json:"jobs"`
	// Trace reports the streaming power-trace endpoint's activity: the
	// number of streams that began and the interval samples emitted.
	Trace TraceMetricsJSON `json:"trace"`
	// Shard reports the worker side of distributed sweeps: shard
	// requests served by POST /v1/dse/shard and the candidates they
	// evaluated. All zero unless the server runs in worker mode.
	Shard ShardMetricsJSON `json:"dse_shard"`
	// Distrib reports the coordinator side — shards dispatched, stolen,
	// retried, and per-worker throughput — and is present only when the
	// server coordinates DSE jobs across remote workers.
	Distrib *distrib.Stats `json:"distrib,omitempty"`
	// Cache reports the array-synthesis cache activity since the server
	// started (Entries is the current resident total).
	Cache CacheStatsJSON `json:"synth_cache"`
	// Subsys reports the subsystem-synthesis cache (whole cores, shared
	// caches, fabrics, memory controllers, clock networks) over the same
	// window, with a per-kind breakdown.
	Subsys SubsysCacheStatsJSON `json:"subsys_cache"`
	// ArrayOpt reports array-optimizer enumeration work (organizations
	// evaluated) since the server started.
	ArrayOpt ArrayOptStatsJSON `json:"array_optimizer"`
}

func bucketLabel(i int) string {
	if i == len(latencyBucketsMS) {
		return "+Inf"
	}
	return strconv.FormatFloat(latencyBucketsMS[i], 'f', -1, 64) + "ms"
}

// snapshot captures the current instrumentation state.
func (m *metrics) snapshot() MetricsSnapshot {
	d := explore.ReadCounters().Delta(m.base)
	snap := MetricsSnapshot{
		UptimeSec: time.Since(m.start).Seconds(),
		InFlight:  m.inFlight.Load(),
		Requests:  make(map[string]map[string]uint64),
		Latency:   make(map[string]LatencyJSON),
		Jobs: JobMetricsJSON{
			Submitted: m.jobsSubmitted.Load(),
			Done:      m.jobsDone.Load(),
			Failed:    m.jobsFailed.Load(),
			Canceled:  m.jobsCanceled.Load(),
			Rejected:  m.jobsRejected.Load(),
			Recovered: m.jobsRecovered.Load(),
		},
		Trace: TraceMetricsJSON{
			Streams:          m.traceStreams.Load(),
			Samples:          m.traceSamples.Load(),
			ThermalStreams:   m.traceThermalStreams.Load(),
			ThrottledSamples: m.traceThrottled.Load(),
		},
		Shard: ShardMetricsJSON{
			Served:     m.shardsServed.Load(),
			Failed:     m.shardsFailed.Load(),
			Candidates: m.shardCandidates.Load(),
		},
		Cache:    newCacheStatsJSON(d.Cache),
		Subsys:   newSubsysCacheStatsJSON(d.Subsys),
		ArrayOpt: newArrayOptStatsJSON(d.ArrayOpt),
	}
	if m.coord != nil {
		st := m.coord.Snapshot()
		snap.Distrib = &st
	}
	if m.queueDepth != nil {
		snap.Jobs.QueueDepth = m.queueDepth()
	}
	if m.jobsRunning != nil {
		snap.Jobs.Running = m.jobsRunning()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for route, byStatus := range m.requests {
		out := make(map[string]uint64, len(byStatus))
		for status, n := range byStatus {
			out[status] = n
		}
		snap.Requests[route] = out
	}
	for route, h := range m.latency {
		lj := LatencyJSON{Count: h.count, SumMS: h.sumMS, Buckets: make(map[string]uint64)}
		var cum uint64
		for i := range h.counts {
			cum += h.counts[i]
			lj.Buckets[bucketLabel(i)] = cum
		}
		snap.Latency[route] = lj
	}
	return snap
}
