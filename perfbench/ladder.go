package main

import (
	"runtime"
	"time"

	"mcpat/internal/array"
	"mcpat/internal/cache"
	"mcpat/internal/circuit"
	"mcpat/internal/component"
	"mcpat/internal/core"
	"mcpat/internal/tech"
	"mcpat/internal/thermal"
)

// The layer ladder times one public call per layer at fixed inputs. Each
// rung reports ns (or us) per op and heap allocations per op; the inputs
// are the DSE engine's own 22 nm core and a 16-core share of its L2.

// Sinks keep results alive so the compiler cannot drop a timed call. They
// are typed: storing a value into an interface would add an allocation.
var (
	sink      any // pointer results only
	sinkU64   uint64
	sinkF64   float64
	sinkChain circuit.Chain
	sinkWire  circuit.WireResult
)

// warmRung times fn in batches sized to about budget/5 each and returns
// the median batch's seconds per op plus allocations per op.
func warmRung(budget time.Duration, fn func()) (secsPerOp, allocsPerOp float64) {
	fn()
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(t0); d >= budget/50 || n >= 1<<24 {
			n = int(float64(n) * float64(budget/5) / float64(d+1))
			break
		}
		n *= 4
	}
	if n < 1 {
		n = 1
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	batches := make([]float64, 5)
	for b := range batches {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		batches[b] = time.Since(t0).Seconds() / float64(n)
	}
	runtime.ReadMemStats(&ms1)
	return median(batches), float64(ms1.Mallocs-ms0.Mallocs) / float64(5*n)
}

// coldRung times fn one call at a time, running reset (untimed) before
// each, and returns the median seconds per call plus allocations per call.
func coldRung(calls int, reset, fn func()) (secsPerOp, allocsPerOp float64) {
	var ms0, ms1 runtime.MemStats
	times := make([]float64, calls)
	var allocs uint64
	for i := range times {
		reset()
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		fn()
		times[i] = time.Since(t0).Seconds()
		runtime.ReadMemStats(&ms1)
		allocs += ms1.Mallocs - ms0.Mallocs
	}
	return median(times), float64(allocs) / float64(calls)
}

func resetMemos() {
	array.ResetCache()
	component.ResetCache()
}

// ladderCoreConfig is the DSE engine's per-candidate core at 22 nm.
func ladderCoreConfig(node *tech.Node) core.Config {
	return core.Config{
		Name: "core", Tech: node, Dev: tech.HP, ClockHz: 2.5e9,
		Threads: 4,
		ICache:  core.CacheParams{Bytes: 16 << 10, BlockBytes: 32, Assoc: 4},
		DCache:  core.CacheParams{Bytes: 8 << 10, BlockBytes: 16, Assoc: 4},
		IntALUs: 1, MulDivs: 1, FPUs: 1,
	}
}

// ladderCacheConfig is a 16-core, 4 MiB share of the DSE engine's L2.
func ladderCacheConfig(node *tech.Node) cache.Config {
	return cache.Config{
		Name: "L2", Tech: node, Dev: tech.HP, TargetHz: 2.5e9,
		Bytes: 16 * 256 << 10, BlockBytes: 64, Assoc: 8,
		Banks: 16, Directory: true, Sharers: 16,
	}
}

// runLadder fills every ladder metric. It resets the synthesis memos, so
// callers run it after their workload pass.
func runLadder(r *result) error {
	const budget = 100 * time.Millisecond
	node, err := tech.ByFeature(22)
	if err != nil {
		return err
	}
	var ns, allocs float64

	ns, allocs = warmRung(budget, func() { sink, _ = tech.ByFeature(22) })
	r.set("tech.node_build_us", 1e6*ns)
	r.set("tech.node_build_allocs", allocs)
	ns, allocs = warmRung(budget, func() { sinkU64 = node.Fingerprint() })
	r.set("tech.fingerprint_ns", 1e9*ns)
	r.set("tech.fingerprint_allocs", allocs)

	cctx := circuit.NewCtx(node, tech.HP, false)
	ns, allocs = warmRung(budget, func() { sinkChain = cctx.BufferChain(50e-15) })
	r.set("circuit.buffer_chain_ns", 1e9*ns)
	r.set("circuit.buffer_chain_allocs", allocs)
	wire := node.Wire(tech.Aggressive, tech.Global)
	ns, allocs = warmRung(budget, func() { sinkWire = cctx.RepeatedWire(wire, 2e-3) })
	r.set("circuit.repeated_wire_ns", 1e9*ns)
	r.set("circuit.repeated_wire_allocs", allocs)

	// One 16 MiB last-level cache solve with the array memo off.
	prev := array.SetCacheEnabled(false)
	llc := array.Config{
		Name: "llc", Tech: node, Periph: tech.HP, Cell: tech.LSTP,
		Bytes: 16 << 20, BlockBits: 512, Assoc: 16, Banks: 8, RWPorts: 1,
	}
	var llcErr error
	ns, allocs = coldRung(5, func() {}, func() { sink, llcErr = array.New(llc) })
	array.SetCacheEnabled(prev)
	if llcErr != nil {
		return llcErr
	}
	r.set("array.llc_solve_us", 1e6*ns)
	r.set("array.llc_solve_allocs", allocs)

	ccfg := ladderCoreConfig(node)
	var synthErr error
	ns, allocs = coldRung(9, resetMemos, func() { sink, synthErr = core.Synthesize(ccfg) })
	if synthErr != nil {
		return synthErr
	}
	r.set("core.synthesize_us", 1e6*ns)
	r.set("core.synthesize_allocs", allocs)
	ns, allocs = warmRung(budget, func() { sink, synthErr = core.Synthesize(ccfg) })
	r.set("component.hit_ns", 1e9*ns)
	r.set("component.hit_allocs", allocs)

	l2 := ladderCacheConfig(node)
	ns, allocs = coldRung(9, resetMemos, func() { sink, synthErr = cache.Synthesize(l2) })
	if synthErr != nil {
		return synthErr
	}
	r.set("cache.synthesize_us", 1e6*ns)
	r.set("cache.synthesize_allocs", allocs)

	// A six-block floorplan model stepped at 1 ms intervals.
	pkg := thermal.PackageSpec{RthetaJA: 0.8, AmbientK: 318, MaxTjK: 360, TimeConstS: 5e-4}
	blocks := make([]thermal.Block, 6)
	powers := make([]float64, len(blocks))
	for i := range blocks {
		blocks[i] = thermal.Block{Name: "b", RthetaJA: 2 + float64(i)}
		powers[i] = 3 + float64(i)
	}
	model, err := thermal.NewModel(pkg, blocks, 0)
	if err != nil {
		return err
	}
	ns, allocs = warmRung(budget, func() { sinkF64 = model.Step(powers, 1e-3) })
	r.set("thermal.step_ns", 1e9*ns)
	r.set("thermal.step_allocs", allocs)
	return nil
}
