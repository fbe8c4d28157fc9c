// Package trace turns a sequence of simulator statistics intervals into
// a time-series power trace. It is the workload the synthesize/score
// split was built for: the chip is synthesized exactly once (the
// expensive phase), then every interval dump runs one cheap, pure Score
// of the chip's compiled report into the engine's reused slab, so a warm
// interval costs no synthesis, builds no report tree and allocates only
// its sample's subsystem list.
//
// chip.Report builds its tree from the same Score, so every Sample is
// bit-identical to what a standalone Report call over that interval's
// statistics would return.
package trace

import (
	"context"
	"fmt"
	"io"
	"math"

	"mcpat/internal/chip"
	"mcpat/internal/gem5"
	"mcpat/internal/guard"
	"mcpat/internal/m5compat"
)

// Interval is one statistics window: the runtime vector the simulator
// dumped plus the simulated seconds it covers.
type Interval struct {
	Stats    *chip.Stats
	Duration float64 // simulated seconds in this window
}

// SubsystemPower is the per-top-level-subsystem runtime breakdown of one
// interval (Cores, L2, NoC, MemoryController, ...).
type SubsystemPower struct {
	Name     string  `json:"name"`
	DynamicW float64 `json:"dynamic_w"`
	LeakageW float64 `json:"leakage_w"` // net of power gating
	TotalW   float64 `json:"total_w"`
}

// Sample is the scored power of one interval. The thermal/DVFS fields
// are populated only when the closed loop is enabled (see EnableLoop):
// TemperatureK is the hotspot junction temperature at the end of the
// interval (the temperature the next interval's leakage is scored at),
// FreqHz the clock the interval ran at, and Throttled whether the
// governor derated it below nominal.
type Sample struct {
	Index        int              `json:"index"`
	StartS       float64          `json:"start_s"`    // simulated start time
	DurationS    float64          `json:"duration_s"` // simulated window length
	DynamicW     float64          `json:"dynamic_w"`
	LeakageW     float64          `json:"leakage_w"` // net of power gating
	TotalW       float64          `json:"total_w"`
	EnergyJ      float64          `json:"energy_j"` // TotalW x DurationS
	TemperatureK float64          `json:"temperature_k,omitempty"`
	FreqHz       float64          `json:"freq_hz,omitempty"`
	Throttled    bool             `json:"throttled,omitempty"`
	Subsystems   []SubsystemPower `json:"subsystems,omitempty"`
}

// Header describes the chip a trace was scored against.
type Header struct {
	Name      string  `json:"name"`
	NM        float64 `json:"nm"`
	ClockHz   float64 `json:"clock_hz"`
	NumCores  int     `json:"num_cores"`
	TDPW      float64 `json:"tdp_w"`
	AreaMM2   float64 `json:"area_mm2"`
	Intervals int     `json:"intervals,omitempty"` // 0 when unknown up front (streaming)
}

// Summary aggregates a finished trace. The thermal/DVFS fields are
// populated only for closed-loop runs.
type Summary struct {
	Intervals  int     `json:"intervals"`
	SimSeconds float64 `json:"sim_seconds"`
	EnergyJ    float64 `json:"energy_j"`
	AvgW       float64 `json:"avg_w"` // energy over simulated time
	PeakW      float64 `json:"peak_w"`
	PeakIndex  int     `json:"peak_index"`
	MinW       float64 `json:"min_w"`

	MaxTempK           float64 `json:"max_temp_k,omitempty"`
	FinalTempK         float64 `json:"final_temp_k,omitempty"`
	ThrottledIntervals int     `json:"throttled_intervals,omitempty"`
}

// Trace is a fully materialized power trace.
type Trace struct {
	Chip    Header   `json:"chip"`
	Samples []Sample `json:"samples"`
	Summary Summary  `json:"summary"`
}

// Record is one NDJSON frame of a streamed trace: exactly one of Chip,
// Sample, or Summary is set, discriminated by Type ("chip", "sample",
// "summary").
type Record struct {
	Type    string   `json:"type"`
	Chip    *Header  `json:"chip,omitempty"`
	Sample  *Sample  `json:"sample,omitempty"`
	Summary *Summary `json:"summary,omitempty"`
}

// Engine scores intervals against one synthesized chip. It is not safe
// for concurrent use (every Score writes the engine's one slab); build
// one engine per stream.
type Engine struct {
	proc    *chip.Processor
	slab    chip.Slab
	tdpW    float64
	areaMM2 float64

	// loop, when non-nil, closes the power/thermal/DVFS feedback around
	// Run (see EnableLoop in loop.go).
	loop *loopState
}

// NewEngine synthesizes the chip once and pre-computes the TDP columns.
// Every subsequent Score call is a pure pass over the synthesized
// components; chip synthesis cost is paid here and never again.
func NewEngine(cfg chip.Config) (*Engine, error) {
	proc, err := chip.New(cfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{proc: proc}
	tdp, err := proc.Score(nil, &e.slab)
	if err != nil {
		return nil, err
	}
	e.tdpW, e.areaMM2 = tdp.Peak(0), tdp.Area(0)*1e6
	return e, nil
}

// Processor exposes the synthesized chip (for callers that want a full
// report of one interval, or chip metadata beyond the header).
func (e *Engine) Processor() *chip.Processor { return e.proc }

// Header describes the synthesized chip.
func (e *Engine) Header(intervals int) Header {
	return Header{
		Name:      e.proc.Cfg.Name,
		NM:        e.proc.Cfg.NM,
		ClockHz:   e.proc.Cfg.ClockHz,
		NumCores:  e.proc.Cfg.NumCores,
		TDPW:      e.tdpW,
		AreaMM2:   e.areaMM2,
		Intervals: intervals,
	}
}

// Score scores one interval: a single Score of the synthesized chip into
// the engine's slab, reduced to a Sample: the root's power and that of
// each subsystem, the root's children. start is the simulated time at
// which the interval begins.
func (e *Engine) Score(i int, start float64, iv Interval) (Sample, error) {
	sc, err := e.proc.Score(iv.Stats, &e.slab)
	if err != nil {
		return Sample{}, guard.At(err, fmt.Sprintf("interval[%d]", i))
	}
	n := 0
	for c := 1; c < sc.Len(); c = sc.End(c) {
		n++
	}
	s := Sample{
		Index:      i,
		StartS:     start,
		DurationS:  iv.Duration,
		DynamicW:   sc.RuntimeDynamic(0),
		LeakageW:   sc.Leakage(0) - sc.LeakSaved(0),
		TotalW:     sc.Runtime(0),
		Subsystems: make([]SubsystemPower, 0, n),
	}
	s.EnergyJ = s.TotalW * iv.Duration
	for c := 1; c < sc.Len(); c = sc.End(c) {
		s.Subsystems = append(s.Subsystems, SubsystemPower{
			Name:     sc.Name(c),
			DynamicW: sc.RuntimeDynamic(c),
			LeakageW: sc.Leakage(c) - sc.LeakSaved(c),
			TotalW:   sc.Runtime(c),
		})
	}
	for _, v := range [...]float64{s.DynamicW, s.LeakageW, s.TotalW, s.EnergyJ, s.DurationS} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Sample{}, guard.Domainf(fmt.Sprintf("trace.interval[%d]", i), "non-finite power in scored interval")
		}
	}
	return s, nil
}

// Run scores every interval in order, invoking onSample (may be nil)
// after each one — the streaming hook — and returns the materialized
// trace. The context is honored between intervals, so a canceled stream
// stops promptly without tearing down the engine.
func (e *Engine) Run(ctx context.Context, intervals []Interval, onSample func(Sample) error) (*Trace, error) {
	tr := &Trace{
		Chip:    e.Header(len(intervals)),
		Samples: make([]Sample, 0, len(intervals)),
	}
	start := 0.0
	for i, iv := range intervals {
		if err := ctx.Err(); err != nil {
			return nil, guard.At(err, fmt.Sprintf("trace.interval[%d]", i))
		}
		ff := 1.0
		if e.loop != nil {
			iv, ff = e.loopBegin(i, iv)
		}
		s, err := e.Score(i, start, iv)
		if err != nil {
			return nil, err
		}
		if e.loop != nil {
			if err := e.loopEnd(&s, ff); err != nil {
				return nil, err
			}
		}
		tr.Samples = append(tr.Samples, s)
		start += iv.Duration
		if onSample != nil {
			if err := onSample(s); err != nil {
				return nil, err
			}
		}
	}
	tr.Summary = summarize(tr.Samples)
	return tr, nil
}

// summarize folds the samples into the trace summary.
func summarize(samples []Sample) Summary {
	sum := Summary{Intervals: len(samples)}
	if len(samples) == 0 {
		return sum
	}
	sum.MinW = math.Inf(1)
	for _, s := range samples {
		sum.SimSeconds += s.DurationS
		sum.EnergyJ += s.EnergyJ
		if s.TotalW > sum.PeakW {
			sum.PeakW = s.TotalW
			sum.PeakIndex = s.Index
		}
		if s.TotalW < sum.MinW {
			sum.MinW = s.TotalW
		}
		if s.TemperatureK > sum.MaxTempK {
			sum.MaxTempK = s.TemperatureK
		}
		sum.FinalTempK = s.TemperatureK
		if s.Throttled {
			sum.ThrottledIntervals++
		}
	}
	if sum.SimSeconds > 0 {
		sum.AvgW = sum.EnergyJ / sum.SimSeconds
	}
	return sum
}

// IntervalsFromDumps converts parsed gem5 statistics dumps into trace
// intervals for a chip with the given clock and core count.
func IntervalsFromDumps(dumps []m5compat.Dump, clockHz float64, numCores int) ([]Interval, error) {
	out := make([]Interval, 0, len(dumps))
	for i := range dumps {
		stats, err := m5compat.ToChipStatsAt(dumps, i, clockHz, numCores)
		if err != nil {
			return nil, guard.Wrap(guard.ErrConfig, fmt.Sprintf("trace.stats.interval[%d]", i), err)
		}
		secs, err := m5compat.SimSeconds(dumps[i], clockHz)
		if err != nil {
			return nil, guard.Wrap(guard.ErrConfig, fmt.Sprintf("trace.stats.interval[%d]", i), err)
		}
		out = append(out, Interval{Stats: stats, Duration: secs})
	}
	return out, nil
}

// FromGem5 wires the whole native pipeline: map config.json to a chip,
// synthesize it once, and convert every dump in stats.txt to an
// interval. The returned gem5.Result carries the mapping provenance.
func FromGem5(configJSON, statsTxt io.Reader) (*Engine, []Interval, *gem5.Result, error) {
	res, err := gem5.Map(configJSON)
	if err != nil {
		return nil, nil, nil, err
	}
	eng, err := NewEngine(res.Config)
	if err != nil {
		return nil, nil, nil, err
	}
	dumps, err := m5compat.Parse(statsTxt)
	if err != nil {
		return nil, nil, nil, guard.Wrap(guard.ErrConfig, "trace.stats", err)
	}
	ivs, err := IntervalsFromDumps(dumps, res.Config.ClockHz, res.Config.NumCores)
	if err != nil {
		return nil, nil, nil, err
	}
	return eng, ivs, res, nil
}
