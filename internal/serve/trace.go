package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"mcpat/internal/chip"
	"mcpat/internal/guard"
	"mcpat/internal/m5compat"
	"mcpat/internal/presets"
	"mcpat/internal/thermal"
	"mcpat/internal/trace"
)

// maxTraceBodyBytes bounds POST /v1/trace bodies: unlike chip
// descriptions, a stats.txt with thousands of interval dumps is
// legitimately large.
const maxTraceBodyBytes = 64 << 20

// TraceRequest is the JSON body of POST /v1/trace. The chip comes from
// exactly one of Gem5Config (a raw gem5 config.json document, mapped
// template-free), Preset, or Config; StatsTxt is the gem5 statistics
// stream whose dumps become the trace intervals.
type TraceRequest struct {
	// Gem5Config is an embedded gem5 config.json document.
	Gem5Config json.RawMessage `json:"gem5_config,omitempty"`
	// Preset names a bundled chip template; ignored when Gem5Config is
	// set.
	Preset string `json:"preset,omitempty"`
	// Config is the native chip description; ignored when Gem5Config or
	// Preset is set.
	Config *chip.Config `json:"config,omitempty"`
	// StatsTxt is the raw stats.txt content (multi-dump).
	StatsTxt string `json:"stats_txt"`
	// Thermal, when present, closes the power/thermal/DVFS loop around
	// the trace: samples gain temperature_k/freq_hz/throttled fields and
	// the summary gains max/final temperature and throttle counts.
	Thermal *TraceThermalOptions `json:"thermal,omitempty"`
}

// TraceThermalOptions selects the closed-loop thermal/DVFS behavior of a
// trace request.
type TraceThermalOptions struct {
	// RthetaJA is the junction-to-ambient thermal resistance (K/W);
	// required.
	RthetaJA float64 `json:"rtheta_ja"`
	// AmbientK is the ambient temperature (0 = the thermal package
	// default, 318 K).
	AmbientK float64 `json:"ambient_k,omitempty"`
	// MaxTjK is the junction limit; it also sets the default setpoint of
	// the headroom governor.
	MaxTjK float64 `json:"max_tj_k,omitempty"`
	// TimeConstS is the thermal time constant for transient stepping
	// (0 = quasi-static).
	TimeConstS float64 `json:"time_const_s,omitempty"`
	// UseFloorplan enables per-subsystem thermal blocks with
	// floorplan-derived spreading resistances (default: whole-die lump).
	UseFloorplan bool `json:"use_floorplan,omitempty"`
	// InitialTempK seeds the die temperature (0 = ambient).
	InitialTempK float64 `json:"initial_temp_k,omitempty"`
	// Governor is the DVFS policy: "none" (default), "headroom", or
	// "schedule".
	Governor string `json:"governor,omitempty"`
	// TargetK overrides the headroom governor's throttle setpoint.
	TargetK float64 `json:"target_k,omitempty"`
	// FreqSchedule is the per-interval frequency fractions for the
	// "schedule" governor.
	FreqSchedule []float64 `json:"freq_schedule,omitempty"`
}

// loopOptions translates the request options into trace.LoopOptions.
func (o *TraceThermalOptions) loopOptions() (trace.LoopOptions, error) {
	if o.RthetaJA <= 0 {
		return trace.LoopOptions{}, guard.Configf("trace.thermal", "rtheta_ja must be positive")
	}
	gov, err := trace.NewGovernor(o.Governor, o.TargetK, o.FreqSchedule)
	if err != nil {
		return trace.LoopOptions{}, guard.Configf("trace.thermal", "%v", err)
	}
	return trace.LoopOptions{
		Package: thermal.PackageSpec{
			RthetaJA:   o.RthetaJA,
			AmbientK:   o.AmbientK,
			MaxTjK:     o.MaxTjK,
			TimeConstS: o.TimeConstS,
		},
		UseFloorplan: o.UseFloorplan,
		Governor:     gov,
		InitialTempK: o.InitialTempK,
	}, nil
}

// handleTrace serves POST /v1/trace: map + synthesize the chip once,
// then stream one NDJSON record per statistics interval — a "chip"
// header, one "sample" per dump, and a closing "summary" (the same
// framing trace.Trace.WriteNDJSON emits). Setup errors arrive as a
// plain JSON error body with the guard classification; errors after
// streaming has begun arrive as a final {"type":"error"} record.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	// Trace setup runs a full chip synthesis, so it competes with
	// /v1/evaluate for the same admission slots. The slot covers setup
	// alone: streaming only scores intervals.
	if !s.admit(w) {
		return
	}
	handedOff := false // to the setup goroutine, once the body parses
	defer func() {
		if !handedOff {
			<-s.evalSem
		}
	}()

	var req TraceRequest
	body := http.MaxBytesReader(nil, r.Body, maxTraceBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest,
			&APIError{Kind: kindBadRequest, Message: fmt.Sprintf("parse JSON: %v", err)})
		return
	}

	// Setup (mapping + the one synthesis) honors the request deadline
	// with the same goroutine containment as /v1/evaluate, slot
	// included; the streaming phase afterwards is bounded by the client
	// connection instead.
	setupCtx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		setupCtx, cancel = context.WithTimeout(setupCtx, s.cfg.RequestTimeout)
		defer cancel()
	}
	type out struct {
		eng *trace.Engine
		ivs []trace.Interval
		err error
	}
	handedOff = true
	o, err := handOff(setupCtx, s.evalSem, func() out {
		eng, ivs, err := traceSetup(&req)
		return out{eng, ivs, err}
	})
	if err == nil {
		err = o.err
	}
	if err != nil {
		writeModelError(w, err)
		return
	}

	s.metrics.traceStreams.Add(1)
	if req.Thermal != nil {
		s.metrics.traceThermalStreams.Add(1)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	// A failed flush means the client is gone; the next write says so.
	flush := func() { _ = rc.Flush() }
	h := o.eng.Header(len(o.ivs))
	if err := trace.WriteRecord(w, trace.Record{Type: "chip", Chip: &h}); err != nil {
		return // client went away before the header flushed
	}
	flush()

	tr, err := o.eng.Run(r.Context(), o.ivs, func(smp trace.Sample) error {
		if err := trace.WriteRecord(w, trace.Record{Type: "sample", Sample: &smp}); err != nil {
			return err
		}
		flush()
		s.metrics.traceSamples.Add(1)
		if smp.Throttled {
			s.metrics.traceThrottled.Add(1)
		}
		return nil
	})
	if err != nil {
		// The status line is gone; the error travels in-band as a final
		// record (write errors mean the client is gone — nothing to do).
		if b, merr := json.Marshal(struct {
			Type  string   `json:"type"`
			Error APIError `json:"error"`
		}{Type: "error", Error: *guard.Classify(err)}); merr == nil {
			_, _ = w.Write(append(b, '\n'))
		}
		flush()
		return
	}
	sum := tr.Summary
	_ = trace.WriteRecord(w, trace.Record{Type: "summary", Summary: &sum})
	flush()
}

// traceSetup resolves the chip source, synthesizes the engine, and
// parses the interval stream. Every error carries a guard kind.
func traceSetup(req *TraceRequest) (*trace.Engine, []trace.Interval, error) {
	if strings.TrimSpace(req.StatsTxt) == "" {
		return nil, nil, guard.Configf("trace.stats", "stats_txt is required")
	}
	// armLoop closes the thermal/DVFS loop over the built engine when the
	// request asks for it (validated up front so option errors surface as
	// config errors before any synthesis output streams).
	armLoop := func(eng *trace.Engine) error {
		if req.Thermal == nil {
			return nil
		}
		opts, err := req.Thermal.loopOptions()
		if err != nil {
			return err
		}
		return eng.EnableLoop(opts)
	}
	if len(req.Gem5Config) > 0 {
		eng, ivs, _, err := trace.FromGem5(bytes.NewReader(req.Gem5Config), strings.NewReader(req.StatsTxt))
		if err != nil {
			return nil, nil, err
		}
		return eng, ivs, armLoop(eng)
	}
	cfg := req.Config
	if req.Preset != "" {
		p, err := presets.ByName(req.Preset)
		if err != nil {
			return nil, nil, guard.Configf("trace", "unknown preset %q", req.Preset)
		}
		cfg = &p.Config
	}
	if cfg == nil {
		return nil, nil, guard.Configf("trace", "one of gem5_config, preset, or config is required")
	}
	if hook := testEvalHook.Load(); hook != nil {
		if err := (*hook)(cfg); err != nil {
			return nil, nil, err
		}
	}
	eng, err := trace.NewEngine(*cfg)
	if err != nil {
		return nil, nil, err
	}
	dumps, err := m5compat.Parse(strings.NewReader(req.StatsTxt))
	if err != nil {
		return nil, nil, guard.Wrap(guard.ErrConfig, "trace.stats", err)
	}
	ivs, err := trace.IntervalsFromDumps(dumps, cfg.ClockHz, cfg.NumCores)
	if err != nil {
		return nil, nil, err
	}
	return eng, ivs, armLoop(eng)
}
