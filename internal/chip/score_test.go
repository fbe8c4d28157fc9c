package chip

import (
	"math"
	"testing"

	"mcpat/internal/cache"
	"mcpat/internal/core"
	"mcpat/internal/guard"
	"mcpat/internal/mc"
	"mcpat/internal/power"
)

// runStats is a representative runtime statistics vector, so the
// kernel's tests cover the runtime columns (and power gating) too.
func runStats() *Stats {
	return &Stats{
		CoreRun: core.Activity{
			ICacheAccess: 0.8, Decode: 1.2, IntOp: 0.9, FPOp: 0.1,
			DCacheRead: 0.3, DCacheWrite: 0.12, CacheMiss: 0.02,
			BTBAccess: 0.2, PredAccess: 0.2, ITLBAccess: 0.8,
			DTLBAccess: 0.42, LSQAccess: 0.42, LSQSearch: 0.12,
			Bypass: 1.3, PipelineDuty: 0.77,
		},
		L2Reads: 2.1e8, L2Writes: 0.9e8,
		NoCFlits:   3.3e8,
		MCAccesses: 1.2e8,
	}
}

// sameBits compares two floats by their bits, so NaNs compare equal.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestScoreBitIdentical pins the kernel's contract with the trees built
// from it: every row of a Score carries the bits of the same node of
// ReportE's tree, in pre-order, and scoring into a slab another chip
// left dirty (with a larger or smaller report, or at another operating
// point) writes the same bits as scoring into a fresh one.
func TestScoreBitIdentical(t *testing.T) {
	var slab Slab
	for _, c := range bitsChips() {
		p, err := New(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, sc := range bitsScenarios {
			p.SetScoreTemperature(sc.tempK)
			p.SetScoreDVFS(sc.fFrac, sc.v)
			label := c.name + "/" + sc.name
			rep, err := p.ReportE(sc.stats())
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got, err := p.Score(sc.stats(), &slab)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			var nodes []*power.Item
			var walk func(it *power.Item)
			walk = func(it *power.Item) {
				nodes = append(nodes, it)
				for _, k := range it.Children {
					walk(k)
				}
			}
			walk(rep)
			if got.Len() != len(nodes) {
				t.Fatalf("%s: %d rows, tree has %d nodes", label, got.Len(), len(nodes))
			}
			for r, it := range nodes {
				want := [6]float64{it.Area, it.PeakDynamic, it.RuntimeDynamic, it.SubLeak, it.GateLeak, it.LeakSaved}
				v := got.Values(r)
				for i := range v {
					if !sameBits(v[i], want[i]) || got.Name(r) != it.Name {
						t.Fatalf("%s: row %d (%s) is %v, tree node %s is %v", label, r, got.Name(r), v, it.Name, want)
					}
				}
				if !sameBits(got.Peak(r), it.Peak()) || !sameBits(got.Runtime(r), it.Runtime()) ||
					!sameBits(got.Leakage(r), it.Leakage()) {
					t.Fatalf("%s: row %d totals differ from the tree's", label, r)
				}
			}
		}
	}
}

// TestPeakScoreMatchesTDP pins that compile and score run one walk:
// scored at the chip's own peak activity at the nominal operating point,
// every input leaf's RuntimeDynamic carries the bits of its PeakDynamic.
// The clock network is the one leaf whose TDP (the gated peak) and
// runtime (pipeline duty) formulas differ by design.
func TestPeakScoreMatchesTDP(t *testing.T) {
	var slab Slab
	for _, c := range bitsChips() {
		p, err := New(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		peak := p.peakStats()
		sc, err := p.Score(&peak, &slab)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		leaves := 0
		for r := 0; r < sc.Len(); r++ {
			if sc.Rows[r].In < 0 || sc.End(r) != r+1 || sc.Name(r) == "ClockNetwork" {
				continue
			}
			leaves++
			if !sameBits(sc.RuntimeDynamic(r), sc.PeakDynamic(r)) {
				t.Errorf("%s: %s: runtime dynamic %v at peak activity, TDP column %v",
					c.name, sc.Name(r), sc.RuntimeDynamic(r), sc.PeakDynamic(r))
			}
		}
		if leaves < 20 {
			t.Errorf("%s: only %d input leaves compared", c.name, leaves)
		}
	}
}

// TestScoreSteadyStateAllocs: once a slab holds a chip's compiled
// report, scoring the chip into it allocates nothing, at TDP, at runtime
// and off the nominal point.
func TestScoreSteadyStateAllocs(t *testing.T) {
	p, err := New(bitsChips()[6].cfg) // every optional part, power-gated
	if err != nil {
		t.Fatal(err)
	}
	stats := allStats()
	var slab Slab
	if _, err := p.Score(stats, &slab); err != nil {
		t.Fatal(err)
	}
	for _, op := range []struct {
		name     string
		stats    *Stats
		fFrac, v float64
	}{{"tdp", nil, 1, 1}, {"runtime", stats, 1, 1}, {"offnominal", stats, 0.8, 0.9}} {
		p.SetScoreDVFS(op.fFrac, op.v)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := p.Score(op.stats, &slab); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: a steady-state Score allocates %v times, want 0", op.name, allocs)
		}
	}
}

// TestCheckScoreMatchesCheckReport pins the row check on a scored chip
// to the tree check (which TestDiagnosticPathsMatchReference pins to the
// reference walker): the same findings in the same order, on clean
// scores, on scores whose compiled rows were poisoned in their slab, and
// past the runtime-vs-TDP bound.
func TestCheckScoreMatchesCheckReport(t *testing.T) {
	poisons := []struct {
		name  string
		plant func(rows []power.Row)
	}{
		{"clean", func([]power.Row) {}},
		{"NaN", func(rows []power.Row) { rows[7].SubLeak = math.NaN() }},
		{"+Inf", func(rows []power.Row) { rows[3].Area = math.Inf(1) }},
		{"negative", func(rows []power.Row) { rows[len(rows)-1].GateLeak = -1e-3 }},
		{"children above parent", func(rows []power.Row) { rows[2].PeakDynamic /= 2; rows[0].Area *= 0.5 }},
		{"runtime above TDP", func(rows []power.Row) { rows[len(rows)-1].PeakDynamic = 0; rows[0].PeakDynamic = 1e-3 }},
	}
	for _, c := range bitsChips() {
		for _, pz := range poisons {
			p, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var slab Slab
			if _, err := p.Score(nil, &slab); err != nil {
				t.Fatal(err)
			}
			pz.plant(slab.prog.Rows)
			for _, sc := range bitsScenarios {
				p.SetScoreTemperature(sc.tempK)
				p.SetScoreDVFS(sc.fFrac, sc.v)
				label := c.name + "/" + pz.name + "/" + sc.name
				s, err := p.Score(sc.stats(), &slab)
				if err != nil {
					t.Fatal(err)
				}
				got, want := guard.CheckScore(s, nil), guard.CheckReport(s.Tree(), nil)
				if pz.name == "clean" && len(got) != 0 {
					t.Fatalf("%s: clean score has findings: %v", label, got)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d findings, tree check %d:\n got  %v\n want %v", label, len(got), len(want), got, want)
				}
				for i := range got {
					g, w := got[i], want[i]
					if g.Path != w.Path || g.Field != w.Field || g.Msg != w.Msg || !sameBits(g.Value, w.Value) {
						t.Errorf("%s: finding %d is %+v, tree check %+v", label, i, g, w)
					}
				}
			}
		}
	}
}

// TestReportRollupInvariant: every interior node's six columns equal the
// in-order sum of its children to 1e-12 relative, on every chip and
// scenario of the bits golden. The only departures are the model's own
// per-node steps: the core's layout area (x1.25, x1.3125 when power
// gated), the chip's top-level area (x1.12), and a gated core's
// LeakSaved, which is 70% of its subthreshold leakage over the idle
// fraction of its cycles.
func TestReportRollupInvariant(t *testing.T) {
	const tol = 1e-12
	close := func(a, b float64) bool { return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b)) }
	for _, c := range bitsChips() {
		p, err := New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		coreArea := 1.25
		if c.cfg.Core.PowerGating {
			coreArea *= 1.05
		}
		for _, sc := range bitsScenarios {
			p.SetScoreTemperature(sc.tempK)
			p.SetScoreDVFS(sc.fFrac, sc.v)
			rep, err := p.ReportE(sc.stats())
			if err != nil {
				t.Fatal(err)
			}
			var walk func(path string, it *power.Item, depth int)
			walk = func(path string, it *power.Item, depth int) {
				path += "/" + it.Name
				if len(it.Children) == 0 {
					return
				}
				var sum [6]float64
				for _, k := range it.Children {
					for i, v := range [...]float64{k.Area, k.PeakDynamic, k.RuntimeDynamic, k.SubLeak, k.GateLeak, k.LeakSaved} {
						sum[i] += v
					}
					walk(path, k, depth+1)
				}
				isCore := depth == 2 && len(path) > len("/cmp/Cores/")
				switch {
				case depth == 0:
					sum[0] *= topLevelOverhead
				case isCore:
					sum[0] *= coreArea
					if c.cfg.Core.PowerGating {
						if s := sc.stats(); s != nil && s.CoreRun.PipelineDuty > 0 {
							sum[5] = 0.7 * (1 - s.CoreRun.PipelineDuty) * it.SubLeak
						}
					}
				}
				for i, v := range [...]float64{it.Area, it.PeakDynamic, it.RuntimeDynamic, it.SubLeak, it.GateLeak, it.LeakSaved} {
					if !close(v, sum[i]) {
						t.Errorf("%s/%s%s: column %d is %g, children sum to %g", c.name, sc.name, path, i, v, sum[i])
					}
				}
			}
			walk("", rep, 0)
		}
	}
}

// dseShapes are chips shaped like the DSE's design points (22 nm,
// 2.5 GHz, 32 cores with 256 KB of L2 each): a flat and a clustered
// mesh, a ring, a bus and a crossbar.
func dseShapes() []Config {
	var out []Config
	for _, sh := range []struct {
		kind    InterconnectKind
		cluster int
	}{{Mesh, 1}, {Mesh, 4}, {Ring, 1}, {Bus, 1}, {Crossbar, 1}} {
		const cores = 32
		cfg := manycoreCfg(cores, sh.kind)
		cfg.NM, cfg.ClockHz = 22, 2.5e9
		cfg.Core.Threads = 4
		cfg.L2 = &cache.Config{Name: "L2", Bytes: cores * 256 << 10, BlockBytes: 64, Assoc: 8,
			Banks: cores, Directory: true, Sharers: cores}
		cfg.MC = &mc.Config{Channels: 4, PeakBandwidth: 200e9, LVDS: true}
		if sh.cluster > 1 {
			cfg.NoC.ClusterSize = sh.cluster
			cfg.NoC.MeshX, cfg.NoC.MeshY = MeshDims(cores / sh.cluster)
			cfg.L2.Banks = cores / sh.cluster
		}
		out = append(out, cfg)
	}
	return out
}

// BenchmarkScoreKernel times the kernel's three steps on the DSE chip
// shapes, cycling over them: compiling a synthesized chip's report into
// a reused program, one runtime score into the chip's slab, and the row
// check of a TDP score.
func BenchmarkScoreKernel(b *testing.B) {
	var procs []*Processor
	for _, cfg := range dseShapes() {
		p, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		procs = append(procs, p)
	}
	stats := runStats()
	b.Run("compile", func(b *testing.B) {
		var prog power.Program
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			procs[i%len(procs)].compile(&prog)
		}
	})
	slabs := make([]Slab, len(procs))
	b.Run("score", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := procs[i%len(procs)].Score(stats, &slabs[i%len(procs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("check", func(b *testing.B) {
		var tdp []power.Score
		for i, p := range procs {
			sc, err := p.Score(nil, &slabs[i])
			if err != nil {
				b.Fatal(err)
			}
			tdp = append(tdp, sc)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ds := guard.CheckScore(tdp[i%len(tdp)], nil); len(ds) != 0 {
				b.Fatal(ds)
			}
		}
	})
}
