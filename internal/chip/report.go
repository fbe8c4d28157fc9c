package chip

import (
	"mcpat/internal/core"
	"mcpat/internal/guard"
	"mcpat/internal/power"
	"mcpat/internal/tech"
)

// topLevelOverhead multiplies summed component area for top-level routing
// channels, power grid, and the I/O pad ring.
const topLevelOverhead = 1.12

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
		return power.NewItem(p.Cfg.Name)
	}
	return rep
}

// ReportE is Report with the panic-containment boundary exposed: a fault
// inside the models surfaces as an ErrInternal instead of a crash or a
// silently empty report.
func (p *Processor) ReportE(stats *Stats) (*power.Item, error) {
	return p.ReportArena(stats, nil)
}

// Check synthesizes the report and runs the output sanity guard over it:
// every power/area value finite and non-negative, component trees summing
// to their parents, runtime power within a sane multiple of TDP. It
// returns the report together with the typed diagnostic list; err is
// non-nil only when the report could not be built at all.
func (p *Processor) Check(stats *Stats) (*power.Item, guard.Diagnostics, error) {
	rep, err := p.ReportE(stats)
	if err != nil {
		return nil, nil, err
	}
	return rep, guard.CheckReport(rep, nil), nil
}

// ReportArena is ReportE with the report tree bump-allocated from ar:
// the per-interval fast path of the trace engine, which scores the same
// synthesized chip once per statistics interval and resets the arena
// between intervals. Arena and heap reports run through the single
// buildReportIn code path, so they are bit-identical; the returned tree
// is valid only until ar.Reset (see power.Arena). A nil ar degrades to
// plain heap allocation.
func (p *Processor) ReportArena(stats *Stats, ar *power.Arena) (rep *power.Item, err error) {
	defer guard.Recover(&err, p.reportPath)
	return p.buildReportIn(ar, stats), nil
}

// buildReportIn folds the parts list (fixed in report order at assembly
// time) into the chip's hierarchical report, drawing every Item from ar
// (nil = heap): each part scores its subsystem for the runtime
// statistics, and the rollup then sums children in list order,
// preserving the pre-registry floating-point accumulation exactly.
func (p *Processor) buildReportIn(ar *power.Arena, stats *Stats) *power.Item {
	if stats == nil {
		stats = &Stats{}
	}
	item := ar.NewItemN(p.Cfg.Name, len(p.parts))
	for _, score := range p.parts {
		item.Add(score(ar, stats))
	}
	item.Rollup()
	item.Area *= topLevelOverhead
	// Score-time operating point: leakage follows temperature (and, to
	// first order, supply voltage); runtime dynamic follows the DVFS
	// f·V² derate. At the nominal point both factors are exactly 1 and
	// the report bits match an unretuned build, which is the
	// default-temperature equivalence pin.
	if ls, ds := p.leakScale*p.vddFrac, p.freqFrac*p.vddFrac*p.vddFrac; ls != 1 || ds != 1 {
		item.Retune(ls, ds)
	}
	return item
}

// SetScoreTemperature moves the Score-time junction temperature: every
// subsequent Report/ReportArena pass retunes subthreshold leakage to
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
func (p *Processor) TDP() float64 { return p.Report(nil).Peak() }

// Area returns the chip area in m^2 including top-level overheads.
func (p *Processor) Area() float64 { return p.Report(nil).Area }

// Leakage returns total chip leakage power (W).
func (p *Processor) Leakage() float64 {
	r := p.Report(nil)
	return r.Leakage()
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// CorePeakActivity exposes the TDP activity vector in use for the cores.
func (p *Processor) CorePeakActivity() core.Activity { return p.corePeak }
