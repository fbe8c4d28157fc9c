package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call into a layer's public function. Spans live in
// memory during the traced pass and are written out when it ends.
type span struct {
	name       string
	parent     int32 // index of the enclosing span, -1 for a root
	start, end int64 // ns since the tracer's epoch
}

// tracer records spans. A nil *tracer records nothing, so the untraced
// pass runs the identical code path.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: int32(parent), start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
}

// selfTimes sums, per span name, the span's duration minus the part its
// child spans cover, in seconds. roots is the summed duration of root
// spans.
func (t *tracer) selfTimes() (self map[string]float64, roots float64) {
	self = map[string]float64{}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		d := s.end - s.start
		self[s.name] += float64(d-child[i]) / 1e9
		if s.parent < 0 {
			roots += float64(d) / 1e9
		}
	}
	return self, roots
}

// total is the summed inclusive duration of every span with the name.
func (t *tracer) total(name string) float64 {
	var sum int64
	for _, s := range t.spans {
		if s.name == name {
			sum += s.end - s.start
		}
	}
	return float64(sum) / 1e9
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, file string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n", i, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// attribution is the per-layer breakdown of one traced pass: self time per
// op of each row, against the pass's per-op wall time.
type attribution struct {
	workload string
	opUnit   string
	rows     []attrRow
	wall     float64 // per-op wall time the rows must sum to, seconds
	// traced and untraced are the per-op times of the same serial pass
	// with and without spans; their ratio is the tracing overhead.
	traced, untraced float64
	// sumFrac is the median over repetitions of the rows' sum over wall.
	sumFrac float64
}

type attrRow struct {
	layer string
	secs  float64 // self time per op
}

func (a *attribution) add(layer string, secs float64) {
	a.rows = append(a.rows, attrRow{layer, secs})
}

func (a *attribution) sum() float64 {
	var s float64
	for _, r := range a.rows {
		s += r.secs
	}
	return s
}

// overhead is the tracing overhead: traced over untraced per-op time, - 1.
func (a *attribution) overhead() float64 {
	if a.untraced <= 0 {
		return 0
	}
	return a.traced/a.untraced - 1
}

func (a *attribution) print(w io.Writer) {
	fmt.Fprintf(w, "attribution %s: per op = %s; wall %.3f us/op; serial pass %.3f us/op traced, %.3f us/op untraced (tracing overhead %+.1f%%)\n",
		a.workload, a.opUnit, 1e6*a.wall, 1e6*a.traced, 1e6*a.untraced, 100*a.overhead())
	fmt.Fprintf(w, "  %-36s %12s %8s\n", "layer", "self us/op", "share")
	for _, r := range a.rows {
		fmt.Fprintf(w, "  %-36s %12.3f %7.1f%%\n", r.layer, 1e6*r.secs, 100*r.secs/a.wall)
	}
	fmt.Fprintf(w, "  %-36s %12.3f %7.1f%% of per-op wall time (median per repetition: %.1f%%)\n",
		"sum", 1e6*a.sum(), 100*a.sum()/a.wall, 100*a.sumFrac)
	fmt.Fprintln(w, "  "+strings.Repeat("-", 58))
}

// fill reports the attribution's own metrics.
func (a *attribution) fill(r *result) {
	r.set("traced.op_us", 1e6*a.wall)
	r.set("traced.rows_sum_frac", a.sumFrac)
	r.set("traced.overhead_frac", a.overhead())
}

// medianAttribution takes each row's, and the wall times', median across
// the traced repetitions.
func medianAttribution(as []*attribution) *attribution {
	out := &attribution{workload: as[0].workload, opUnit: as[0].opUnit}
	col := func(f func(*attribution) float64) float64 {
		xs := make([]float64, len(as))
		for i, a := range as {
			xs[i] = f(a)
		}
		return median(xs)
	}
	out.wall = col(func(a *attribution) float64 { return a.wall })
	out.traced = col(func(a *attribution) float64 { return a.traced })
	out.untraced = col(func(a *attribution) float64 { return a.untraced })
	out.sumFrac = col(func(a *attribution) float64 { return a.sum() / a.wall })
	for i, row := range as[0].rows {
		out.add(row.layer, col(func(a *attribution) float64 { return a.rows[i].secs }))
	}
	return out
}
