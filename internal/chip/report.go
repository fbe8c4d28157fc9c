package chip

import (
	"sync"

	"mcpat/internal/core"
	"mcpat/internal/guard"
	"mcpat/internal/power"
	"mcpat/internal/tech"
)

// topLevelOverhead multiplies summed component area for top-level routing
// channels, power grid, and the I/O pad ring.
const topLevelOverhead = 1.12

// compile builds the chip's report program from its synthesized models
// into dst's storage, by walking the chip at its peak activity.
func (p *Processor) compile(dst *power.Program) {
	b := power.NewBuilder(dst)
	peak := p.peakStats()
	p.walk(&b, &peak)
	*dst = b.Program()
}

// walk adds the chip's report to b under activity s: every part adds
// its rows in report order under the chip's root, whose area then takes
// the top-level overhead, and gives each leaf its dynamic power under s.
func (p *Processor) walk(b *power.Builder, s *Stats) {
	b.Open(p.Cfg.Name)
	p.walkCores(b, s)
	if p.L2 != nil {
		p.L2.Walk(b, p.Cfg.L2.Name, s.L2Reads, s.L2Writes)
	}
	if p.L3 != nil {
		p.L3.Walk(b, p.Cfg.L3.Name, s.L3Reads, s.L3Writes)
	}
	p.walkFPU(b, s)
	p.walkFabric(b, s)
	p.walkMC(b, s)
	p.walkIO(b, s)
	p.walkClock(b, s)
	if area := p.Cfg.OtherArea; area > 0 {
		// Known-but-unmodeled area, a row with no power.
		b.Fixed("Other(unmodeled)", area)
	}
	b.AreaOverhead(b.Close(), topLevelOverhead)
}

// Shared-cache TDP traffic mix: at saturation, roughly 70% of shared
// cache accesses are reads (demand fetches and fills) and 30% writes
// (write-backs and upgrades) — the traffic mix assumed when deriving
// cache TDP from the per-bank duty factor.
const (
	cachePeakReadFrac  = 0.7
	cachePeakWriteFrac = 0.3
)

// peakStats returns the chip's TDP activity, every part at its maximum
// sustainable rate, as the statistics the report is compiled at.
func (p *Processor) peakStats() Stats {
	cfg := &p.Cfg
	hz := cfg.ClockHz
	s := Stats{CoreRun: p.corePeak}
	// A shared cache's access rate is limited both by the bank count and
	// by the miss/traffic rate the cores can generate (~2 accesses per
	// core per cycle at saturation).
	if p.L2 != nil {
		acc := cfg.L2PeakDuty * float64(min(p.L2.Cfg().Banks, 2*cfg.NumCores)) * hz
		s.L2Reads, s.L2Writes = acc*cachePeakReadFrac, acc*cachePeakWriteFrac
	}
	if p.L3 != nil {
		acc := cfg.L3PeakDuty * float64(min(p.L3.Cfg().Banks, 2*cfg.NumCores)) * hz
		s.L3Reads, s.L3Writes = acc*cachePeakReadFrac, acc*cachePeakWriteFrac
	}
	// Flits per router, link or bus per cycle.
	switch cfg.NoC.Kind {
	case Mesh:
		s.NoCFlits = 0.4 * hz
		s.ClusterBusTransfers = 0.6 * hz
	case Ring:
		// Every flit traverses ~stations/4 hops on average, so
		// per-router forwarding duty runs high.
		s.NoCFlits = 0.5 * hz
	case Bus:
		s.NoCFlits = 0.8 * hz
	case Crossbar:
		s.NoCFlits = 0.5 * float64(cfg.NumCores) * hz // port pairs busy
	}
	if cfg.MC != nil && cfg.MC.PeakBandwidth > 0 {
		s.MCAccesses = cfg.MCPeakUtil * cfg.MC.PeakBandwidth / 64
	}
	// The I/O controllers run at their full line rate.
	if niu := cfg.NIU; niu != nil {
		s.NIUBitsPerSec = 2 * niu.Bandwidth * float64(max(niu.Count, 1))
	}
	if pcie := cfg.PCIe; pcie != nil {
		lanes := float64(max(pcie.Lanes, 1))
		gbps := pcie.GbpsPerLane
		if gbps <= 0 {
			gbps = 2.5
		}
		s.PCIeBitsPerSec = lanes * gbps * 1e9
	}
	// Half the shared FPUs busy every cycle.
	s.FPOpsPerSec = 0.5 * float64(cfg.SharedFPUs) * hz
	return s
}

// Slab is a caller-owned score buffer: the compiled report of the chip
// it last scored and the runtime columns of its last score. Scoring one
// chip into a slab over and over compiles the chip's report once and
// then allocates nothing; a slab handed a different chip compiles that
// chip's report into the same storage. The zero Slab is ready to use.
// A slab serves one goroutine at a time.
type Slab struct {
	owner *Processor // the chip prog was compiled for; nil if none
	prog  power.Program
	cols  []float64
}

// noStats is the statistics of a TDP-only score.
var noStats Stats

// Score scores the chip's report for stats (nil: TDP only, the runtime
// columns at zero activity) at the current operating point, into slab.
// The report is compiled once per chip and slab: no model computes a
// TDP column from statistics, so a score walks the chip at stats only to
// write the runtime inputs, and rolls up only the runtime columns. The
// result aliases the slab until its next score.
// Concurrent Scores on one Processor are safe as long as each has its
// own slab.
//
// Score is a panic-containment boundary: a fault inside the models, or
// a score whose inputs do not match the compiled report, surfaces as an
// ErrInternal at "<name>.Report".
func (p *Processor) Score(stats *Stats, slab *Slab) (sc power.Score, err error) {
	defer guard.Recover(&err, p.reportPath)
	if slab.owner != p {
		slab.owner = nil
		p.compile(&slab.prog)
		slab.owner = p
	}
	if stats == nil {
		stats = &noStats
	}
	prog := &slab.prog
	if n := prog.SlabLen(); cap(slab.cols) >= n {
		slab.cols = slab.cols[:n]
	} else {
		slab.cols = make([]float64, n)
	}
	b := power.NewScoreBuilder(prog.InputBuf(slab.cols))
	p.walk(&b, stats)
	if in := b.Inputs(); len(in) != prog.Inputs {
		return power.Score{}, guard.Internalf(p.reportPath, "score wrote %d inputs, the report has %d", len(in), prog.Inputs)
	}
	// Score-time operating point: leakage follows temperature (and, to
	// first order, supply voltage); runtime dynamic follows the DVFS
	// f·V² derate. At the nominal point both factors are exactly 1 and
	// the score matches an unretuned one bit for bit, which is the
	// default-temperature equivalence pin.
	return prog.Run(slab.cols, p.leakScale*p.vddFrac, p.freqFrac*p.vddFrac*p.vddFrac), nil
}

// Report builds the hierarchical power/area report of the whole chip.
// stats may be nil, in which case only TDP columns are populated.
//
// Report never panics: a fault inside the models is contained and an
// empty report (zero power and area) named after the chip is returned so
// a host process survives. Callers that need the fault itself, or the
// output sanity diagnostics, should use ReportE or Check.
func (p *Processor) Report(stats *Stats) *power.Item {
	rep, err := p.ReportE(stats)
	if err != nil {
		return &power.Item{Name: p.Cfg.Name}
	}
	return rep
}

// ReportE is Report with the panic-containment boundary exposed: a fault
// inside the models surfaces as an ErrInternal instead of a crash or a
// silently empty report. The tree is built from one Score.
func (p *Processor) ReportE(stats *Stats) (*power.Item, error) {
	slab := getSlab()
	defer putSlab(slab)
	sc, err := p.Score(stats, slab)
	if err != nil {
		return nil, err
	}
	return sc.Tree(), nil
}

// oneOff recycles the slabs of the calls that score a chip once and copy
// the result out (ReportE, Check and the scalar helpers), so such a call
// allocates only what it returns.
var oneOff = sync.Pool{New: func() any { return new(Slab) }}

func getSlab() *Slab { return oneOff.Get().(*Slab) }

// putSlab returns a slab to the pool without its chip, which the pool
// must not keep alive.
func putSlab(s *Slab) {
	s.owner = nil
	oneOff.Put(s)
}

// Check synthesizes the report and runs the output sanity guard over it:
// every power/area value finite and non-negative, component trees summing
// to their parents, runtime power within a sane multiple of TDP. It
// returns the report together with the typed diagnostic list; err is
// non-nil only when the report could not be built at all.
func (p *Processor) Check(stats *Stats) (*power.Item, guard.Diagnostics, error) {
	slab := getSlab()
	defer putSlab(slab)
	sc, err := p.Score(stats, slab)
	if err != nil {
		return nil, nil, err
	}
	return sc.Tree(), guard.CheckScore(sc, nil), nil
}

// SetScoreTemperature moves the Score-time junction temperature: every
// subsequent Score or Report retunes subthreshold leakage to
// tempK (a single multiplier — see tech.LeakScaleAt) without any
// re-synthesis. tempK <= 0 restores the reference temperature.
// This is the per-interval entry point of the thermal feedback loop; it
// is not safe to call concurrently with Report on the same Processor.
func (p *Processor) SetScoreTemperature(tempK float64) {
	if tempK <= 0 {
		tempK = tech.ReferenceTempK
	}
	p.scoreTempK = tempK
	p.leakScale = tech.LeakScaleAt(tempK)
}

// ScoreTemperature reports the junction temperature reports are
// currently scored at.
func (p *Processor) ScoreTemperature() float64 { return p.scoreTempK }

// SetScoreDVFS moves the Score-time DVFS operating point as fractions of
// the nominal clock and supply: runtime dynamic power scales by
// freqFrac·vddFrac² (same per-cycle activity, fewer cycles per second,
// quadratic supply sensitivity) and leakage scales linearly with
// vddFrac, the first-order McPAT treatment. Fractions <= 0 reset to 1.
// Like SetScoreTemperature this is a pure Score-phase retune — the DVFS
// governor in the trace engine calls it every interval against one
// synthesized chip.
func (p *Processor) SetScoreDVFS(freqFrac, vddFrac float64) {
	if freqFrac <= 0 {
		freqFrac = 1
	}
	if vddFrac <= 0 {
		vddFrac = 1
	}
	p.freqFrac, p.vddFrac = freqFrac, vddFrac
}

// ScoreDVFS reports the current score-time frequency and voltage
// fractions.
func (p *Processor) ScoreDVFS() (freqFrac, vddFrac float64) { return p.freqFrac, p.vddFrac }

// TDP returns the chip thermal design power in watts (peak dynamic plus
// leakage at the configured temperature).
func (p *Processor) TDP() float64 {
	slab := getSlab()
	defer putSlab(slab)
	sc, err := p.Score(nil, slab)
	if err != nil {
		return 0
	}
	return sc.Peak(0)
}

// Area returns the chip area in m^2 including top-level overheads.
func (p *Processor) Area() float64 {
	slab := getSlab()
	defer putSlab(slab)
	sc, err := p.Score(nil, slab)
	if err != nil {
		return 0
	}
	return sc.Area(0)
}

// Leakage returns total chip leakage power (W).
func (p *Processor) Leakage() float64 {
	slab := getSlab()
	defer putSlab(slab)
	sc, err := p.Score(nil, slab)
	if err != nil {
		return 0
	}
	return sc.Leakage(0)
}

// CorePeakActivity exposes the TDP activity vector in use for the cores.
func (p *Processor) CorePeakActivity() core.Activity { return p.corePeak }
