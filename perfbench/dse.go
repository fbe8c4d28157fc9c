package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"mcpat/internal/array"
	"mcpat/internal/cache"
	"mcpat/internal/chip"
	"mcpat/internal/component"
	"mcpat/internal/core"
	"mcpat/internal/explore"
	"mcpat/internal/guard"
	"mcpat/internal/mc"
	"mcpat/internal/perfsim"
)

// runDSE runs dse-cold (warm == false) or dse-warm.
//
// dse-cold resets both synthesis memos before every sweep, like a fresh
// mcpat-dse process: the array optimizer, circuit primitives and component
// synthesis do the work and the memos fill from empty. dse-warm sweeps
// against memos warmed during set-up, like a daemon re-running sweeps: no
// array solves, no subsystem misses, so engine overhead, warm assembly,
// the guard, perfsim and report building carry the cost.
func runDSE(ctx context.Context, rc runConfig, warm bool) (*result, error) {
	space := dseSpace(rc.seed)
	p := dseParams()
	r := newResult(rc)
	opts := &explore.Options{Workers: 2}

	// Set-up is one full sweep from empty memos: for dse-warm the warming
	// sweep, for dse-cold the sweep that lets heap and lazy runtime state
	// settle so every timed sweep starts from the same process state.
	var setup setupClock
	var ref *explore.Result
	for i := 0; i < setupReps; i++ {
		setup.start()
		resetMemos()
		res, err := explore.SearchContext(ctx, p, space, dseCons, explore.MaxThroughput, opts)
		if err != nil {
			return nil, fmt.Errorf("set-up sweep: %w", err)
		}
		setup.stop()
		ref = res
	}
	want := dseDigest(ref)
	digestOK := checkDigest("dse", rc.seed, want)

	if rc.trace {
		return r, traceDSE(ctx, rc, r, space, p, warm, want, digestOK)
	}

	log := newOpLog(rc.window, batchTailQ, 1)
	var attempted, failed int64
	deadline := log.start.Add(rc.window)
	for time.Now().Before(deadline) {
		log.calibrate()
		if !warm {
			resetMemos()
		}
		t0 := time.Now()
		res, err := explore.SearchContext(ctx, p, space, dseCons, explore.MaxThroughput, opts)
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		log.add(t0, d, res.Evaluated)
		attempted += int64(res.Evaluated)
		failed += int64(len(res.Failures))
		if dseDigest(res) != want {
			digestOK = false
		}
	}
	log.end()
	// Outside the window: the benchmark-local replay must reproduce the
	// engine bit for bit, so its per-layer attribution describes the
	// workload the window measured.
	if !warm {
		resetMemos()
	}
	if _, err := checkedReplay(ctx, space, p, warm, want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		digestOK = false
	}
	if err := fillEndToEnd(r, &setup, log); err != nil {
		return nil, err
	}
	r.finish(attempted, failed, digestOK)
	return r, nil
}

// counters is a snapshot of the synthesis-memo and optimizer counters.
type counters struct {
	arr  array.CacheStats
	opt  array.OptimizerStats
	comp component.CacheStats
}

func snapCounters() counters {
	return counters{arr: array.Stats(), opt: array.OptStats(), comp: component.Stats()}
}

func (c counters) sub(prev counters) counters {
	return counters{arr: c.arr.Delta(prev.arr), opt: c.opt.Delta(prev.opt), comp: c.comp.Delta(prev.comp)}
}

// sameWork compares two counter deltas on everything a serial run fixes
// (Entries is a gauge and Shared needs concurrency, so neither counts).
func (c counters) sameWork(o counters) bool {
	if c.arr.Hits != o.arr.Hits || c.arr.Misses != o.arr.Misses || c.arr.Bypassed != o.arr.Bypassed || c.opt != o.opt {
		return false
	}
	for k := range c.comp.Kinds {
		a, b := c.comp.Kinds[k], o.comp.Kinds[k]
		if a.Hits != b.Hits || a.Misses != b.Misses || a.Bypassed != b.Bypassed {
			return false
		}
	}
	return true
}

// setCounters reports the memo and optimizer counters of one pass.
func setCounters(r *result, d counters) {
	solves := d.arr.Misses + d.arr.Bypassed
	r.set("array.solves", float64(solves))
	r.set("array.hit_rate", d.arr.HitRate())
	if solves > 0 {
		r.set("array.orgs_per_solve", float64(d.opt.Evaluated)/float64(solves))
	}
	r.set("array.prune_rate", d.opt.PruneRate())
	tot := d.comp.Total()
	r.set("component.misses", float64(tot.Misses+tot.Bypassed))
	for name, k := range map[string]component.Kind{"core": component.KindCore, "cache": component.KindCache,
		"fabric": component.KindFabric, "mc": component.KindMC, "clock": component.KindClock} {
		r.set("component."+name+".misses", float64(d.comp.Kinds[k].Misses+d.comp.Kinds[k].Bypassed))
	}
	r.set("component.hit_rate", d.comp.HitRate())
}

// replayCheck is one engine run at Workers=1 and one untraced replay from
// the same memo state, with their costs.
type replayCheck struct {
	engine   *explore.Result
	engWall  time.Duration
	engDelta counters
	untraced time.Duration
	rt0, rt1 rtSnap
}

// checkedReplay runs the engine serially (Workers=1, serial assembly) and
// then the benchmark-local replay from the same memo state, and requires
// bit-identical per-candidate numbers, identical counter deltas and the
// expected digest. The caller puts the memos in the workload's state
// first; for dse-cold both runs start from empty memos.
func checkedReplay(ctx context.Context, space explore.Space, p explore.Params, warm bool, want string) (*replayCheck, error) {
	var rc replayCheck
	c0 := snapCounters()
	t0 := time.Now()
	res, err := explore.SearchContext(ctx, p, space, dseCons, explore.MaxThroughput, &explore.Options{Workers: 1, SynthWorkers: 1})
	rc.engWall = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("serial engine sweep: %w", err)
	}
	rc.engDelta = snapCounters().sub(c0)
	rc.engine = res

	if !warm {
		resetMemos()
	}
	rc.rt0 = readRT()
	c0 = snapCounters()
	t0 = time.Now()
	cands, err := replay(nil, space, p)
	rc.untraced = time.Since(t0)
	delta := snapCounters().sub(c0)
	rc.rt1 = readRT()
	if err != nil {
		return nil, err
	}
	// From here on a mismatch is an output-check failure, not a crash:
	// the costs are still returned.
	if !delta.sameWork(rc.engDelta) {
		return &rc, fmt.Errorf("replay counter deltas %+v differ from the engine's %+v", delta, rc.engDelta)
	}
	if err := sameCandidates(res, cands); err != nil {
		return &rc, err
	}
	if got := dseDigest(replayResult(cands)); got != want {
		return &rc, fmt.Errorf("replay digest %s, engine digest %s", got, want)
	}
	return &rc, nil
}

// sameCandidates requires the replay's per-candidate numbers to equal the
// engine's bit for bit.
func sameCandidates(res *explore.Result, cands []explore.Candidate) error {
	if len(res.Failures) > 0 {
		return fmt.Errorf("engine reported %d failures, first: %v", len(res.Failures), res.Failures[0])
	}
	byKey := map[string]explore.Candidate{}
	for _, c := range res.Candidates {
		byKey[candKey(c)] = c
	}
	if len(byKey) != len(cands) {
		return fmt.Errorf("engine evaluated %d candidates, replay %d", len(byKey), len(cands))
	}
	for _, c := range cands {
		e, ok := byKey[candKey(c)]
		if !ok {
			return fmt.Errorf("replay candidate %s missing from the engine result", candKey(c))
		}
		if math.Float64bits(e.TDP) != math.Float64bits(c.TDP) || math.Float64bits(e.AreaMM2) != math.Float64bits(c.AreaMM2) ||
			math.Float64bits(e.Perf) != math.Float64bits(c.Perf) || math.Float64bits(e.RunW) != math.Float64bits(c.RunW) ||
			math.Float64bits(e.Score) != math.Float64bits(c.Score) || e.Feasible != c.Feasible || e.Reject != c.Reject {
			return fmt.Errorf("candidate %s: engine %+v, replay %+v", candKey(c), e, c)
		}
	}
	return nil
}

func candKey(c explore.Candidate) string {
	return fmt.Sprintf("%dc-%dkb-%v-cl%d", c.Cores, c.L2PerCoreKB, c.Fabric, c.ClusterSize)
}

// dseDigest folds every candidate's outputs, in ranked order, and the
// Pareto front.
func dseDigest(res *explore.Result) string {
	d := newDigest()
	fold := func(c explore.Candidate) {
		d.i(c.Cores)
		d.i(c.L2PerCoreKB)
		d.i(int(c.Fabric))
		d.i(c.ClusterSize)
		d.f(c.TDP)
		d.f(c.AreaMM2)
		d.f(c.Perf)
		d.f(c.RunW)
		d.b(c.Feasible)
		d.f(c.Score)
	}
	d.i(len(res.Candidates))
	for _, c := range res.Candidates {
		fold(c)
	}
	d.i(len(res.Front))
	for _, c := range res.Front {
		fold(c)
	}
	return d.hex()
}

// replayResult ranks replayed candidates and builds their front the way
// the engine does: front insertion in proposal order, stable ranking
// feasible-first by score.
func replayResult(cands []explore.Candidate) *explore.Result {
	front := explore.NewParetoFront(0)
	for _, c := range cands {
		front.Add(c)
	}
	ranked := append([]explore.Candidate(nil), cands...)
	sort.SliceStable(ranked, func(i, j int) bool {
		a, b := ranked[i], ranked[j]
		if a.Feasible != b.Feasible {
			return a.Feasible
		}
		return a.Score > b.Score
	})
	return &explore.Result{Candidates: ranked, Front: front.Members()}
}

// replay evaluates every design point serially, in explore.Enumerate
// order, through the layers' public functions. candConfig and evalCand
// are benchmark-local copies of the engine's candidate-to-config mapping
// and scoring steps; checkedReplay pins them to the engine.
func replay(tr *tracer, space explore.Space, p explore.Params) ([]explore.Candidate, error) {
	cands := explore.Enumerate(space)
	for i := range cands {
		if err := evalCand(tr, p, &cands[i]); err != nil {
			return nil, fmt.Errorf("replay %s: %w", candKey(cands[i]), err)
		}
	}
	return cands, nil
}

func meshDims(n int) (int, int) {
	x, y := 1, 1
	for x*y < n {
		if x <= y {
			x *= 2
		} else {
			y *= 2
		}
	}
	return x, y
}

// candConfig mirrors the engine's mapping of a design point to a chip.
func candConfig(p explore.Params, c explore.Candidate) (chip.Config, error) {
	banks := c.Cores
	cfg := chip.Config{
		Name:     fmt.Sprintf("dse-%dc-%dkb-%v-cl%d", c.Cores, c.L2PerCoreKB, c.Fabric, c.ClusterSize),
		NM:       p.NM,
		ClockHz:  p.ClockHz,
		NumCores: c.Cores,
		Core: core.Config{
			Threads: p.Threads,
			ICache:  core.CacheParams{Bytes: 16 << 10, BlockBytes: 32, Assoc: 4},
			DCache:  core.CacheParams{Bytes: 8 << 10, BlockBytes: 16, Assoc: 4},
			IntALUs: 1, MulDivs: 1, FPUs: 1,
		},
		MC: &mc.Config{Channels: 4, PeakBandwidth: p.MemBW, LVDS: true},
	}
	switch c.Fabric {
	case chip.Mesh:
		if c.ClusterSize <= 0 || c.Cores%c.ClusterSize != 0 {
			return cfg, fmt.Errorf("cluster %d does not divide %d cores", c.ClusterSize, c.Cores)
		}
		clusters := c.Cores / c.ClusterSize
		mx, my := meshDims(clusters)
		cfg.NoC = chip.NoCSpec{
			Kind: chip.Mesh, FlitBits: 128, MeshX: mx, MeshY: my,
			VirtualChannels: 2, BuffersPerVC: 4, ClusterSize: c.ClusterSize,
		}
		banks = clusters
	case chip.Ring, chip.Bus, chip.Crossbar:
		cfg.NoC = chip.NoCSpec{Kind: c.Fabric, FlitBits: 128}
	}
	cfg.L2 = &cache.Config{
		Name:  "L2",
		Bytes: c.Cores * c.L2PerCoreKB << 10, BlockBytes: 64, Assoc: 8,
		Banks: banks, Directory: true, Sharers: c.Cores,
	}
	return cfg, nil
}

// evalCand mirrors the engine's scoring of one design point, with a span
// around every layer call. chip.check wraps the TDP report and, as its
// child, the output guard: together they are Processor.Check(nil).
func evalCand(tr *tracer, p explore.Params, c *explore.Candidate) error {
	root := tr.begin("explore.candidate", -1)
	defer tr.end(root)
	cfg, err := candConfig(p, *c)
	if err != nil {
		c.Reject = err.Error()
		return nil
	}
	s := tr.begin("chip.new", root)
	proc, err := chip.NewWithWorkers(cfg, 1)
	tr.end(s)
	if err != nil {
		if errors.Is(err, guard.ErrInternal) || errors.Is(err, guard.ErrModelDomain) {
			return err
		}
		c.Reject = err.Error()
		return nil
	}
	s = tr.begin("chip.check", root)
	rep, err := proc.ReportE(nil)
	if err != nil {
		tr.end(s)
		return err
	}
	g := tr.begin("guard.check", s)
	ds := guard.CheckReport(rep, nil)
	tr.end(g)
	tr.end(s)
	if err := ds.Err(); err != nil {
		return err
	}
	c.TDP = rep.Peak()
	c.AreaMM2 = rep.Area * 1e6
	if dseCons.MaxAreaMM2 > 0 && c.AreaMM2 > dseCons.MaxAreaMM2 {
		c.Reject = fmt.Sprintf("area %.0f mm2 > budget %.0f", c.AreaMM2, dseCons.MaxAreaMM2)
		return nil
	}
	if dseCons.MaxTDP > 0 && c.TDP > dseCons.MaxTDP {
		c.Reject = fmt.Sprintf("TDP %.0f W > budget %.0f", c.TDP, dseCons.MaxTDP)
		return nil
	}
	m := candMachine(p, *c, proc)
	var sumPerf, logW float64
	for _, w := range p.Workloads {
		s = tr.begin("perfsim.run", root)
		sim, err := perfsim.Run(m, w)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("chip.report", root)
		runRep, err := proc.ReportE(simStats(sim))
		tr.end(s)
		if err != nil {
			return err
		}
		sumPerf += sim.Throughput
		logW += math.Log(runRep.RuntimeDynamic + runRep.Leakage())
	}
	n := float64(len(p.Workloads))
	c.Perf = sumPerf / n
	c.RunW = math.Exp(logW / n)
	for _, v := range []float64{c.Perf, c.RunW} {
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("non-physical evaluation: perf=%g runW=%g", c.Perf, c.RunW)
		}
	}
	c.Feasible = true
	c.Score = c.Perf // MaxThroughput, the benchmark's objective
	return nil
}

// candMachine mirrors the engine's performance-model machine of a point.
func candMachine(p explore.Params, c explore.Candidate, proc *chip.Processor) perfsim.Machine {
	dim, _ := meshDims(max(c.Cores/max(c.ClusterSize, 1), 1))
	return perfsim.Machine{
		Cores: c.Cores, ThreadsPerCore: p.Threads, IssueWidth: 1,
		ClockHz:      p.ClockHz,
		ClusterSize:  c.ClusterSize,
		L2Latency:    math.Ceil(proc.L2.AccessTime()*p.ClockHz) + 4,
		FabricHopLat: 4, MemLatency: 60e-9 * p.ClockHz,
		MeshDim: dim, MemBandwidth: p.MemBW, BusBytes: 16,
	}
}

// simStats maps a perfsim result onto the chip's runtime statistics.
func simStats(sim *perfsim.Result) *chip.Stats {
	return &chip.Stats{
		CoreRun:    sim.CoreActivity,
		L2Reads:    sim.L2ReadsSec,
		L2Writes:   sim.L2WritesSec,
		NoCFlits:   sim.FabricFlits,
		MCAccesses: sim.MemAccessesS,
	}
}

// traceDSE is the traced pass of the DSE workloads. chip.New hides the
// array optimizer and component synthesis, so the pass replays the
// candidates under three memo states: A both memos reset, B array memo
// warm and subsystem memo reset, C both warm. Array time is A - B,
// component time B - C, and warm chip assembly C. dse-cold sees state A;
// dse-warm sees state C, where array and component time are zero.
func traceDSE(ctx context.Context, rc runConfig, r *result, space explore.Space, p explore.Params, warm bool, want string, digestOK bool) error {
	n := float64(len(explore.Enumerate(space)))
	vals := map[string][]float64{}
	put := func(name string, v float64) { vals[name] = append(vals[name], v) }
	var attrs []*attribution
	var attempted, failed int64
	var tracers map[string]*tracer
	deadline := time.Now().Add(rc.window)
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		if !warm {
			resetMemos()
		}
		chk, err := checkedReplay(ctx, space, p, warm, want)
		if chk == nil {
			return err
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			digestOK = false
		}
		res := chk.engine
		attempted += int64(res.Evaluated)
		failed += int64(len(res.Failures))

		// The traced passes, in the order that builds each memo state.
		states := []string{"C"}
		if !warm {
			resetMemos()
			states = []string{"A", "B", "C"}
		}
		tracers = map[string]*tracer{}
		walls := map[string]float64{}
		for _, st := range states {
			if st == "B" {
				component.ResetCache()
			}
			tr := newTracer(int(n) * 12)
			t0 := time.Now()
			if _, err := replay(tr, space, p); err != nil {
				return err
			}
			walls[st] = time.Since(t0).Seconds() / n
			tracers[st] = tr
		}
		seen := tracers[states[0]]
		newC := tracers["C"].total("chip.new") / n
		var arrayT, compT float64
		if !warm {
			newA, newB := seen.total("chip.new")/n, tracers["B"].total("chip.new")/n
			arrayT, compT = newA-newB, newB-newC
		}
		put("array.optimize_us", 1e6*arrayT)
		put("component.synth_us", 1e6*compT)
		put("chip.assemble_us", 1e6*newC)
		put("chip.new_us", 1e6*perCall(seen, "chip.new"))
		put("chip.check_us", 1e6*perCall(seen, "chip.check"))
		put("guard.check_us", 1e6*perCall(seen, "guard.check"))
		put("chip.report_us", 1e6*perCall(seen, "chip.report"))
		put("perfsim.run_us", 1e6*perCall(seen, "perfsim.run"))
		put("explore.overhead_us", 1e6*(chk.engWall-chk.untraced).Seconds()/n)

		self, _ := seen.selfTimes()
		a := &attribution{workload: rc.workload, opUnit: "1 design candidate", wall: walls[states[0]],
			traced: walls[states[0]], untraced: chk.untraced.Seconds() / n}
		a.add("explore (engine-side steps)", self["explore.candidate"]/n)
		if !warm {
			a.add("array (optimizer, A-B)", arrayT)
			a.add("component (synthesis, B-C)", compT)
		}
		a.add("chip (warm assembly, C)", newC)
		a.add("chip (TDP report)", self["chip.check"]/n)
		a.add("guard (output check)", self["guard.check"]/n)
		a.add("chip (runtime reports)", self["chip.report"]/n)
		a.add("perfsim", self["perfsim.run"]/n)
		attrs = append(attrs, a)

		if rep == 0 {
			setCounters(r, chk.engDelta)
			r.set("explore.evaluated", float64(res.Evaluated))
			r.set("explore.feasible", float64(res.Feasible))
			r.set("explore.failures", float64(len(res.Failures)))
			setRuntime(r, chk.rt0, chk.rt1, int(n))
		}
	}
	for name, v := range vals {
		r.set(name, median(v))
	}
	a := medianAttribution(attrs)
	a.print(os.Stdout)
	a.fill(r)
	allocs, err := reportAllocs(space, p)
	if err != nil {
		return err
	}
	r.set("chip.report_allocs", allocs)
	for st, tr := range tracers {
		if err := tr.write(rc.spansDir, fmt.Sprintf("%s-seed%d-%s.jsonl", rc.workload, rc.seed, st)); err != nil {
			return err
		}
	}
	if err := runLadder(r); err != nil {
		return err
	}
	r.finish(attempted, failed, digestOK)
	return nil
}

// perCall is a span name's mean inclusive duration per call, seconds.
func perCall(tr *tracer, name string) float64 {
	calls := 0
	for _, s := range tr.spans {
		if s.name == name {
			calls++
		}
	}
	if calls == 0 {
		return 0
	}
	return tr.total(name) / float64(calls)
}

// reportAllocs measures heap allocations per Processor.ReportE call with
// perfsim statistics, over the first warm candidates of the space.
func reportAllocs(space explore.Space, p explore.Params) (float64, error) {
	type pair struct {
		proc  *chip.Processor
		stats *chip.Stats
	}
	var pairs []pair
	for _, c := range explore.Enumerate(space)[:16] {
		cfg, err := candConfig(p, c)
		if err != nil {
			continue
		}
		proc, err := chip.NewWithWorkers(cfg, 1)
		if err != nil {
			return 0, err
		}
		sim, err := perfsim.Run(candMachine(p, c, proc), p.Workloads[0])
		if err != nil {
			return 0, err
		}
		pairs = append(pairs, pair{proc, simStats(sim)})
	}
	const rounds = 10
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < rounds; i++ {
		for _, pr := range pairs {
			rep, err := pr.proc.ReportE(pr.stats)
			if err != nil {
				return 0, err
			}
			sink = rep
		}
	}
	runtime.ReadMemStats(&ms1)
	return float64(ms1.Mallocs-ms0.Mallocs) / float64(rounds*len(pairs)), nil
}
