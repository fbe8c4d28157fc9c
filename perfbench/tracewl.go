package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"mcpat/internal/chip"
	"mcpat/internal/gem5"
	"mcpat/internal/m5compat"
	"mcpat/internal/thermal"
	"mcpat/internal/trace"
)

// traceRig is the trace-replay set-up: the example gem5 config mapped to
// a chip, the one synthesized trace engine, and the seeded stats streams.
type traceRig struct {
	eng      *trace.Engine
	cfg      chip.Config
	streams  [][]byte
	loop     trace.LoopOptions
	mapDur   time.Duration
	buildDur time.Duration
}

// setupTrace maps the example config, synthesizes the chip once and
// generates the streams. The closed loop is the dvfs-throttle example's:
// a constrained package with floorplan blocks and the headroom governor.
func setupTrace(seed int64) (*traceRig, error) {
	cfgJSON, err := os.ReadFile(exampleConfig)
	if err != nil {
		return nil, err
	}
	statsTxt, err := os.ReadFile(exampleStats)
	if err != nil {
		return nil, err
	}
	example, err := m5compat.Parse(bytes.NewReader(statsTxt))
	if err != nil {
		return nil, err
	}
	rig := &traceRig{}
	t0 := time.Now()
	res, err := gem5.Map(bytes.NewReader(cfgJSON))
	rig.mapDur = time.Since(t0)
	if err != nil {
		return nil, err
	}
	rig.cfg = res.Config
	t0 = time.Now()
	rig.eng, err = trace.NewEngine(res.Config)
	rig.buildDur = time.Since(t0)
	if err != nil {
		return nil, err
	}
	if rig.streams, err = traceStreamSet(seed, example); err != nil {
		return nil, err
	}
	gov, err := trace.NewGovernor("headroom", 0, nil)
	if err != nil {
		return nil, err
	}
	rig.loop = trace.LoopOptions{
		Package:      thermal.PackageSpec{RthetaJA: 0.8, AmbientK: 318, MaxTjK: 360, TimeConstS: 5e-4},
		UseFloorplan: true,
		Governor:     gov,
	}
	return rig, nil
}

// runStream is one trace-replay op, the mcpat-trace pipeline: parse the
// stats bytes, convert them to intervals, run them open loop and then
// closed loop, writing every record as NDJSON to out.
func (t *traceRig) runStream(ctx context.Context, s int, out *bytes.Buffer) (open, closed *trace.Trace, err error) {
	dumps, err := m5compat.Parse(bytes.NewReader(t.streams[s]))
	if err != nil {
		return nil, nil, err
	}
	ivs, err := trace.IntervalsFromDumps(dumps, t.cfg.ClockHz, t.cfg.NumCores)
	if err != nil {
		return nil, nil, err
	}
	out.Reset()
	emit := func(smp trace.Sample) error {
		return trace.WriteRecord(out, trace.Record{Type: "sample", Sample: &smp})
	}
	hdr := t.eng.Header(len(ivs))
	if err := trace.WriteRecord(out, trace.Record{Type: "chip", Chip: &hdr}); err != nil {
		return nil, nil, err
	}
	t.eng.DisableLoop()
	if open, err = t.eng.Run(ctx, ivs, emit); err != nil {
		return nil, nil, err
	}
	if err := trace.WriteRecord(out, trace.Record{Type: "summary", Summary: &open.Summary}); err != nil {
		return nil, nil, err
	}
	if err := t.eng.EnableLoop(t.loop); err != nil {
		return nil, nil, err
	}
	if closed, err = t.eng.Run(ctx, ivs, emit); err != nil {
		return nil, nil, err
	}
	return open, closed, trace.WriteRecord(out, trace.Record{Type: "summary", Summary: &closed.Summary})
}

// streamDigest folds every sample and the summary of both loop modes.
func streamDigest(open, closed *trace.Trace) uint64 {
	d := newDigest()
	for _, tr := range []*trace.Trace{open, closed} {
		d.i(len(tr.Samples))
		for _, s := range tr.Samples {
			foldSample(&d, s)
		}
		m := tr.Summary
		d.i(m.Intervals)
		for _, v := range []float64{m.SimSeconds, m.EnergyJ, m.AvgW, m.PeakW, m.MinW, m.MaxTempK, m.FinalTempK} {
			d.f(v)
		}
		d.i(m.PeakIndex)
		d.i(m.ThrottledIntervals)
	}
	return d.h
}

func foldSample(d *digest, s trace.Sample) {
	d.i(s.Index)
	for _, v := range []float64{s.StartS, s.DurationS, s.DynamicW, s.LeakageW, s.TotalW, s.EnergyJ, s.TemperatureK, s.FreqHz} {
		d.f(v)
	}
	d.b(s.Throttled)
	for _, p := range s.Subsystems {
		d.s(p.Name)
		d.f(p.DynamicW)
		d.f(p.LeakageW)
		d.f(p.TotalW)
	}
}

// referencePass runs every stream once, untimed, and returns the
// per-stream digests. It also cross-checks each open-loop sample against
// a heap Processor.ReportE over the same interval statistics.
func (t *traceRig) referencePass(ctx context.Context) ([]uint64, error) {
	var out bytes.Buffer
	ref := make([]uint64, len(t.streams))
	for s := range t.streams {
		open, closed, err := t.runStream(ctx, s, &out)
		if err != nil {
			return nil, fmt.Errorf("stream %d: %w", s, err)
		}
		ref[s] = streamDigest(open, closed)
		dumps, err := m5compat.Parse(bytes.NewReader(t.streams[s]))
		if err != nil {
			return nil, err
		}
		ivs, err := trace.IntervalsFromDumps(dumps, t.cfg.ClockHz, t.cfg.NumCores)
		if err != nil {
			return nil, err
		}
		t.eng.DisableLoop()
		for i, iv := range ivs {
			rep, err := t.eng.Processor().ReportE(iv.Stats)
			if err != nil {
				return nil, err
			}
			if math.Float64bits(rep.Runtime()) != math.Float64bits(open.Samples[i].TotalW) {
				return nil, fmt.Errorf("stream %d interval %d: engine %v W, heap report %v W", s, i, open.Samples[i].TotalW, rep.Runtime())
			}
		}
	}
	return ref, nil
}

func combine(ds []uint64) string {
	d := newDigest()
	for _, v := range ds {
		d.u(v)
	}
	return d.hex()
}

// traceReferenceDigest is the expected trace digest of a seed.
func traceReferenceDigest(ctx context.Context, seed int64) (string, error) {
	resetMemos()
	rig, err := setupTrace(seed)
	if err != nil {
		return "", err
	}
	ref, err := rig.referencePass(ctx)
	if err != nil {
		return "", err
	}
	return combine(ref), nil
}

// runTrace is the trace-replay workload: each op replays one seeded stats
// stream through parse, interval conversion, an open-loop Run, a
// closed-loop Run and NDJSON encoding. Each dump counts once per loop mode.
func runTrace(ctx context.Context, rc runConfig) (*result, error) {
	r := newResult(rc)
	var setup setupClock
	var maps, builds []float64
	var rig *traceRig
	for i := 0; i < setupReps; i++ {
		setup.start()
		resetMemos()
		var err error
		if rig, err = setupTrace(rc.seed); err != nil {
			return nil, err
		}
		setup.stop()
		maps = append(maps, rig.mapDur.Seconds())
		builds = append(builds, rig.buildDur.Seconds())
	}
	ref, err := rig.referencePass(ctx)
	digestOK := err == nil
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	} else {
		digestOK = checkDigest("trace", rc.seed, combine(ref))
	}
	if rc.trace {
		r.set("gem5.map_ms", 1e3*median(maps))
		r.set("trace.engine_build_ms", 1e3*median(builds))
		return r, traceTrace(ctx, rc, r, rig, ref, digestOK)
	}

	log := newOpLog(rc.window, batchTailQ, 1)
	var attempted, failed int64
	var out bytes.Buffer
	deadline := log.start.Add(rc.window)
	for i := 0; time.Now().Before(deadline); i++ {
		log.calibrate()
		s := i % len(rig.streams)
		t0 := time.Now()
		open, closed, err := rig.runStream(ctx, s, &out)
		d := time.Since(t0)
		records := 2 * traceDumps
		attempted += int64(records)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			failed += int64(records)
			log.add(t0, -1, 0)
			continue
		}
		log.add(t0, d, len(open.Samples)+len(closed.Samples))
		if ref != nil && streamDigest(open, closed) != ref[s] {
			digestOK = false
		}
	}
	log.end()
	if err := fillEndToEnd(r, &setup, log); err != nil {
		return nil, err
	}
	r.finish(attempted, failed, digestOK)
	return r, nil
}

// traceTrace is the traced pass of trace-replay. It replays every stream
// serially with spans: parse, convert, the open loop as direct
// Engine.Score calls, the closed loop as one Engine.Run, and every NDJSON
// record. The open-loop samples must equal the untraced Run's bit for bit.
func traceTrace(ctx context.Context, rc runConfig, r *result, rig *traceRig, ref []uint64, digestOK bool) error {
	vals := map[string][]float64{}
	put := func(name string, v float64) { vals[name] = append(vals[name], v) }
	var attrs []*attribution
	var attempted int64
	var last *tracer
	var out bytes.Buffer
	records := float64(len(rig.streams) * 2 * traceDumps)
	dumps := float64(len(rig.streams) * traceDumps)
	deadline := time.Now().Add(rc.window)
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		// The end-to-end op sequence, for the output check and the
		// open-loop samples the serial pass must reproduce.
		opens := make([]*trace.Trace, len(rig.streams))
		var throttled, closedN int
		for s := range rig.streams {
			open, closed, err := rig.runStream(ctx, s, &out)
			if err != nil {
				return err
			}
			opens[s] = open
			if ref != nil && streamDigest(open, closed) != ref[s] {
				digestOK = false
			}
			throttled += closed.Summary.ThrottledIntervals
			closedN += len(closed.Samples)
		}
		attempted += int64(records)

		// The serial pass without spans, then with them.
		rt0 := readRT()
		t0 := time.Now()
		for s := range rig.streams {
			if err := rig.tracedStream(ctx, nil, s, &out, opens[s]); err != nil {
				return err
			}
		}
		untraced := time.Since(t0).Seconds()
		rt1 := readRT()
		tr := newTracer(len(rig.streams) * 6 * traceDumps)
		t0 = time.Now()
		for s := range rig.streams {
			if err := rig.tracedStream(ctx, tr, s, &out, opens[s]); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				digestOK = false
			}
		}
		wall := time.Since(t0).Seconds()
		last = tr

		self, _ := tr.selfTimes()
		put("m5compat.parse_us", 1e6*tr.total("m5compat.parse")/dumps)
		put("m5compat.convert_us", 1e6*tr.total("m5compat.convert")/dumps)
		put("trace.score_us", 1e6*perCall(tr, "trace.score"))
		put("trace.loop_us", 1e6*self["trace.loop"]/float64(closedN))
		put("trace.encode_us", 1e6*perCall(tr, "trace.encode"))
		put("trace.throttled_frac", float64(throttled)/float64(closedN))
		if rep == 0 {
			setRuntime(r, rt0, rt1, int(records))
		}
		a := &attribution{workload: rc.workload, opUnit: "1 interval record", wall: wall / records,
			traced: wall / records, untraced: untraced / records}
		a.add("m5compat (parse)", self["m5compat.parse"]/records)
		a.add("m5compat (convert)", self["m5compat.convert"]/records)
		a.add("trace (open-loop Score)", self["trace.score"]/records)
		a.add("trace (closed-loop Run)", self["trace.loop"]/records)
		a.add("trace (EnableLoop)", self["trace.loop_setup"]/records)
		a.add("trace (NDJSON encode)", self["trace.encode"]/records)
		a.add("stream bookkeeping", self["trace.stream"]/records)
		attrs = append(attrs, a)
	}
	for name, v := range vals {
		r.set(name, median(v))
	}
	a := medianAttribution(attrs)
	a.print(os.Stdout)
	a.fill(r)
	scoreAllocs, loopAllocs, err := rig.allocsPerInterval(ctx)
	if err != nil {
		return err
	}
	r.set("trace.score_allocs", scoreAllocs)
	r.set("trace.loop_allocs", loopAllocs)
	if err := last.write(rc.spansDir, fmt.Sprintf("%s-seed%d.jsonl", rc.workload, rc.seed)); err != nil {
		return err
	}
	if err := runLadder(r); err != nil {
		return err
	}
	r.finish(attempted, 0, digestOK)
	return nil
}

// tracedStream is runStream with a span around every layer call; the
// open loop runs as direct Engine.Score calls so scoring and encoding
// separate. want is the untraced open-loop trace of the same stream.
func (t *traceRig) tracedStream(ctx context.Context, tr *tracer, s int, out *bytes.Buffer, want *trace.Trace) error {
	root := tr.begin("trace.stream", -1)
	defer tr.end(root)
	sp := tr.begin("m5compat.parse", root)
	dumps, err := m5compat.Parse(bytes.NewReader(t.streams[s]))
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("m5compat.convert", root)
	ivs, err := trace.IntervalsFromDumps(dumps, t.cfg.ClockHz, t.cfg.NumCores)
	tr.end(sp)
	if err != nil {
		return err
	}
	out.Reset()
	encode := func(parent int, rec trace.Record) error {
		e := tr.begin("trace.encode", parent)
		err := trace.WriteRecord(out, rec)
		tr.end(e)
		return err
	}
	hdr := t.eng.Header(len(ivs))
	if err := encode(root, trace.Record{Type: "chip", Chip: &hdr}); err != nil {
		return err
	}
	t.eng.DisableLoop()
	start := 0.0
	for i, iv := range ivs {
		sp = tr.begin("trace.score", root)
		smp, err := t.eng.Score(i, start, iv)
		tr.end(sp)
		if err != nil {
			return err
		}
		start += iv.Duration
		if err := encode(root, trace.Record{Type: "sample", Sample: &smp}); err != nil {
			return err
		}
		w := want.Samples[i]
		if math.Float64bits(smp.TotalW) != math.Float64bits(w.TotalW) || math.Float64bits(smp.StartS) != math.Float64bits(w.StartS) {
			return fmt.Errorf("stream %d interval %d: Score %v W, Run %v W", s, i, smp.TotalW, w.TotalW)
		}
	}
	if err := encode(root, trace.Record{Type: "summary", Summary: &want.Summary}); err != nil {
		return err
	}
	sp = tr.begin("trace.loop_setup", root)
	err = t.eng.EnableLoop(t.loop)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("trace.loop", root)
	closed, err := t.eng.Run(ctx, ivs, func(smp trace.Sample) error {
		return encode(sp, trace.Record{Type: "sample", Sample: &smp})
	})
	tr.end(sp)
	if err != nil {
		return err
	}
	return encode(root, trace.Record{Type: "summary", Summary: &closed.Summary})
}

// allocsPerInterval measures heap allocations per open-loop Engine.Score
// call and per closed-loop Run interval (no encoding) on stream 0.
func (t *traceRig) allocsPerInterval(ctx context.Context) (score, loop float64, err error) {
	dumps, err := m5compat.Parse(bytes.NewReader(t.streams[0]))
	if err != nil {
		return 0, 0, err
	}
	ivs, err := trace.IntervalsFromDumps(dumps, t.cfg.ClockHz, t.cfg.NumCores)
	if err != nil {
		return 0, 0, err
	}
	const rounds = 20
	var ms0, ms1 runtime.MemStats
	t.eng.DisableLoop()
	runtime.ReadMemStats(&ms0)
	for k := 0; k < rounds; k++ {
		for i, iv := range ivs {
			if _, err := t.eng.Score(i, 0, iv); err != nil {
				return 0, 0, err
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	score = float64(ms1.Mallocs-ms0.Mallocs) / float64(rounds*len(ivs))
	if err := t.eng.EnableLoop(t.loop); err != nil {
		return 0, 0, err
	}
	runtime.ReadMemStats(&ms0)
	for k := 0; k < rounds; k++ {
		if _, err := t.eng.Run(ctx, ivs, nil); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&ms1)
	loop = float64(ms1.Mallocs-ms0.Mallocs) / float64(rounds*len(ivs))
	return score, loop, nil
}
