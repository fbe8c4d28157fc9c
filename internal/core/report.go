package core

import (
	"mcpat/internal/power"
)

// Activity gives average events per clock cycle for each micro-architectural
// event stream McPAT charges energy to. Peak (TDP) activity vectors use the
// maximum sustainable rates; runtime vectors come from a performance
// simulator's statistics.
type Activity struct {
	ICacheAccess float64
	BTBAccess    float64
	PredAccess   float64

	Decode float64 // instructions decoded per cycle
	Rename float64 // instructions renamed per cycle (OoO)

	IQWakeup float64 // issue-window tag broadcasts per cycle
	IQIssue  float64 // instructions issued from windows per cycle
	IQWrite  float64 // instructions inserted per cycle
	ROBAcc   float64 // ROB reads+writes per cycle

	RFRead    float64
	RFWrite   float64
	FPRFRead  float64
	FPRFWrite float64

	IntOp float64 // integer ALU ops per cycle
	MulOp float64
	FPOp  float64

	Bypass float64 // operands moved on the result/bypass bus per cycle

	DCacheRead  float64
	DCacheWrite float64
	CacheMiss   float64 // L1 misses per cycle (MSHR activity)

	LSQSearch float64
	LSQAccess float64

	ITLBAccess float64
	DTLBAccess float64

	PipelineDuty float64 // fraction of cycles the pipeline advances
}

// Scale returns the activity multiplied by k (e.g. a utilization factor).
func (a Activity) Scale(k float64) Activity {
	return Activity{
		ICacheAccess: a.ICacheAccess * k, BTBAccess: a.BTBAccess * k, PredAccess: a.PredAccess * k,
		Decode: a.Decode * k, Rename: a.Rename * k,
		IQWakeup: a.IQWakeup * k, IQIssue: a.IQIssue * k, IQWrite: a.IQWrite * k, ROBAcc: a.ROBAcc * k,
		RFRead: a.RFRead * k, RFWrite: a.RFWrite * k, FPRFRead: a.FPRFRead * k, FPRFWrite: a.FPRFWrite * k,
		IntOp: a.IntOp * k, MulOp: a.MulOp * k, FPOp: a.FPOp * k, Bypass: a.Bypass * k,
		DCacheRead: a.DCacheRead * k, DCacheWrite: a.DCacheWrite * k, CacheMiss: a.CacheMiss * k,
		LSQSearch: a.LSQSearch * k, LSQAccess: a.LSQAccess * k,
		ITLBAccess: a.ITLBAccess * k, DTLBAccess: a.DTLBAccess * k,
		PipelineDuty: a.PipelineDuty * k,
	}
}

// PeakActivity returns the TDP-condition activity vector for a core with
// the given configuration: every unit running at its maximum sustainable
// duty, following McPAT's TDP conventions (front end saturated, integer
// units near-saturated, FP units partially active under an integer-heavy
// thermal workload).
func PeakActivity(cfg Config) Activity {
	_ = cfg.applyDefaults()
	dw := float64(cfg.DecodeWidth)
	iw := float64(cfg.IssueWidth)
	intOps := 0.9 * float64(cfg.IntALUs)
	if intOps > iw {
		intOps = iw
	}
	a := Activity{
		ICacheAccess: 1.0,
		BTBAccess:    0.2 * dw,
		PredAccess:   0.2 * dw,
		Decode:       0.8 * dw,
		IntOp:        intOps,
		MulOp:        0.3 * float64(cfg.MulDivs),
		FPOp:         0.5 * float64(cfg.FPUs),
		DCacheRead:   0.25 * iw,
		DCacheWrite:  0.10 * iw,
		CacheMiss:    0.01,
		ITLBAccess:   1.0,
		PipelineDuty: 0.9,
	}
	a.DTLBAccess = a.DCacheRead + a.DCacheWrite
	a.LSQSearch = a.DCacheWrite
	a.LSQAccess = a.DCacheRead + a.DCacheWrite
	a.RFRead = 1.6 * (a.IntOp + a.MulOp)
	a.RFWrite = 0.8 * (a.IntOp + a.MulOp)
	a.FPRFRead = 1.6 * a.FPOp
	a.FPRFWrite = 0.8 * a.FPOp
	a.Bypass = a.IntOp + a.MulOp + a.FPOp + a.DCacheRead
	if cfg.OoO {
		a.Rename = a.Decode
		a.IQWrite = a.Decode
		a.IQIssue = 0.8 * iw
		a.IQWakeup = a.IQIssue
		a.ROBAcc = a.Decode + 0.8*float64(cfg.CommitWidth)
	}
	return a
}

// rate converts events/cycle into events/second.
func (c *Core) rate(perCycle float64) float64 { return perCycle * c.Cfg.ClockHz }

// leafRW builds a report leaf for an array accessed with the given
// read/write/search rates under peak and runtime activity.
func (c *Core) leaf(ar *power.Arena, name string, p power.PAT, peak, run power.Activity) *power.Item {
	return ar.FromPAT(name, p, peak, run)
}

func rw(reads, writes, searches float64) power.Activity {
	return power.Activity{Reads: reads, Writes: writes, Searches: searches}
}

// Report builds the hierarchical power/area report of the core. peak gives
// the TDP activity; run may be the zero Activity when no runtime
// statistics are available.
func (c *Core) Report(peak, run Activity) *power.Item {
	return c.ReportIn(nil, peak, run)
}

// ReportIn is Report with the result tree bump-allocated from ar (nil
// falls back to the heap — both paths run the identical arithmetic, so
// arena and heap reports are bit-identical by construction). Items are
// valid until ar is reset; see power.Arena for the lifetime contract.
func (c *Core) ReportIn(ar *power.Arena, peak, run Activity) *power.Item {
	cfg := &c.Cfg
	hz := cfg.ClockHz

	item := ar.NewItemN(cfg.Name, 6)

	// ------------- IFU -------------------------------------------------
	ifu := ar.NewItemN("IFU", 6)
	ifu.Add(c.leaf(ar, "icache", c.icache.PAT,
		rw(peak.ICacheAccess*hz, peak.CacheMiss*hz*0.3, 0),
		rw(run.ICacheAccess*hz, run.CacheMiss*hz*0.3, 0)))
	ifu.Add(c.leaf(ar, "icache.mshr", c.icacheMSH.PAT,
		rw(peak.CacheMiss*hz*0.3, peak.CacheMiss*hz*0.3, peak.CacheMiss*hz*0.3),
		rw(run.CacheMiss*hz*0.3, run.CacheMiss*hz*0.3, run.CacheMiss*hz*0.3)))
	if c.btb != nil {
		ifu.Add(c.leaf(ar, "btb", c.btb.PAT,
			rw(peak.BTBAccess*hz, peak.BTBAccess*hz*0.1, 0),
			rw(run.BTBAccess*hz, run.BTBAccess*hz*0.1, 0)))
	}
	pred := ar.NewItemN("predictor", 4)
	if c.localPred != nil {
		pred.Add(c.leaf(ar, "local", c.localPred.PAT,
			rw(peak.PredAccess*hz, peak.PredAccess*hz, 0),
			rw(run.PredAccess*hz, run.PredAccess*hz, 0)))
	}
	if c.globPred != nil {
		pred.Add(c.leaf(ar, "global", c.globPred.PAT,
			rw(peak.PredAccess*hz, peak.PredAccess*hz, 0),
			rw(run.PredAccess*hz, run.PredAccess*hz, 0)))
	}
	if c.chooser != nil {
		pred.Add(c.leaf(ar, "chooser", c.chooser.PAT,
			rw(peak.PredAccess*hz, peak.PredAccess*hz, 0),
			rw(run.PredAccess*hz, run.PredAccess*hz, 0)))
	}
	if c.ras != nil {
		pred.Add(c.leaf(ar, "ras", c.ras.PAT,
			rw(peak.PredAccess*hz*0.3, peak.PredAccess*hz*0.3, 0),
			rw(run.PredAccess*hz*0.3, run.PredAccess*hz*0.3, 0)))
	}
	if len(pred.Children) > 0 {
		ifu.Add(pred)
	}
	ifu.Add(c.leaf(ar, "fetchbuffer", c.fetchBuf.PAT,
		rw(peak.Decode*hz, peak.ICacheAccess*hz, 0),
		rw(run.Decode*hz, run.ICacheAccess*hz, 0)))
	ifu.Add(c.leaf(ar, "decoder", c.decoder,
		rw(peak.Decode*hz, 0, 0), rw(run.Decode*hz, 0, 0)))
	item.Add(ifu)

	// ------------- RNU -------------------------------------------------
	if cfg.OoO {
		rnu := ar.NewItemN("RenameUnit", 4)
		if cfg.RenameCAM {
			rnu.Add(c.leaf(ar, "rat.int", c.intRAT.PAT,
				rw(0, peak.Rename*hz, 2*peak.Rename*hz),
				rw(0, run.Rename*hz, 2*run.Rename*hz)))
			rnu.Add(c.leaf(ar, "rat.fp", c.fpRAT.PAT,
				rw(0, 0.25*peak.Rename*hz, 0.5*peak.Rename*hz),
				rw(0, 0.25*run.Rename*hz, 0.5*run.Rename*hz)))
		} else {
			rnu.Add(c.leaf(ar, "rat.int", c.intRAT.PAT,
				rw(2*peak.Rename*hz, peak.Rename*hz, 0),
				rw(2*run.Rename*hz, run.Rename*hz, 0)))
			rnu.Add(c.leaf(ar, "rat.fp", c.fpRAT.PAT,
				rw(0.5*peak.Rename*hz, 0.25*peak.Rename*hz, 0),
				rw(0.5*run.Rename*hz, 0.25*run.Rename*hz, 0)))
		}
		rnu.Add(c.leaf(ar, "freelist", c.freeList.PAT,
			rw(peak.Rename*hz, peak.Rename*hz, 0),
			rw(run.Rename*hz, run.Rename*hz, 0)))
		rnu.Add(c.leaf(ar, "depcheck", c.depCheck,
			rw(peak.Rename*hz/float64(maxInt(cfg.DecodeWidth, 1)), 0, 0),
			rw(run.Rename*hz/float64(maxInt(cfg.DecodeWidth, 1)), 0, 0)))
		item.Add(rnu)

		sched := ar.NewItemN("Scheduler", 4)
		sched.Add(c.leaf(ar, "iq.int", c.intIQ.PAT,
			rw(peak.IQIssue*hz, peak.IQWrite*hz, peak.IQWakeup*hz),
			rw(run.IQIssue*hz, run.IQWrite*hz, run.IQWakeup*hz)))
		sched.Add(c.leaf(ar, "iq.fp", c.fpIQ.PAT,
			rw(peak.FPOp*hz, peak.FPOp*hz, peak.FPOp*hz),
			rw(run.FPOp*hz, run.FPOp*hz, run.FPOp*hz)))
		sched.Add(c.leaf(ar, "rob", c.rob.PAT,
			rw(peak.ROBAcc*hz*0.5, peak.ROBAcc*hz*0.5, 0),
			rw(run.ROBAcc*hz*0.5, run.ROBAcc*hz*0.5, 0)))
		sched.Add(c.leaf(ar, "select", c.sel,
			rw(peak.IQIssue*hz, 0, 0), rw(run.IQIssue*hz, 0, 0)))
		item.Add(sched)
	} else {
		sched := ar.NewItemN("InstQueue", 1)
		sched.Add(c.leaf(ar, "instq", c.intIQ.PAT,
			rw(peak.Decode*hz, peak.Decode*hz, 0),
			rw(run.Decode*hz, run.Decode*hz, 0)))
		item.Add(sched)
	}

	// ------------- EXU -------------------------------------------------
	exu := ar.NewItemN("EXU", 8)
	exu.Add(c.leaf(ar, "rf.int", c.intRF.PAT,
		rw(peak.RFRead*hz, peak.RFWrite*hz, 0),
		rw(run.RFRead*hz, run.RFWrite*hz, 0)))
	if c.fpRF != nil {
		exu.Add(c.leaf(ar, "rf.fp", c.fpRF.PAT,
			rw(peak.FPRFRead*hz, peak.FPRFWrite*hz, 0),
			rw(run.FPRFRead*hz, run.FPRFWrite*hz, 0)))
	}
	alus := c.leaf(ar, "alus", c.alu, rw(peak.IntOp*hz, 0, 0), rw(run.IntOp*hz, 0, 0))
	alus.Area = c.alu.Area * float64(cfg.IntALUs)
	alus.SubLeak = c.alu.Static.Sub * float64(cfg.IntALUs)
	alus.GateLeak = c.alu.Static.Gate * float64(cfg.IntALUs)
	exu.Add(alus)
	if cfg.FPUs > 0 {
		fpus := c.leaf(ar, "fpus", c.fpu, rw(peak.FPOp*hz, 0, 0), rw(run.FPOp*hz, 0, 0))
		fpus.Area = c.fpu.Area * float64(cfg.FPUs)
		fpus.SubLeak = c.fpu.Static.Sub * float64(cfg.FPUs)
		fpus.GateLeak = c.fpu.Static.Gate * float64(cfg.FPUs)
		exu.Add(fpus)
	}
	if cfg.MulDivs > 0 {
		muls := c.leaf(ar, "muldiv", c.mul, rw(peak.MulOp*hz, 0, 0), rw(run.MulOp*hz, 0, 0))
		muls.Area = c.mul.Area * float64(cfg.MulDivs)
		muls.SubLeak = c.mul.Static.Sub * float64(cfg.MulDivs)
		muls.GateLeak = c.mul.Static.Gate * float64(cfg.MulDivs)
		exu.Add(muls)
	}
	bypass := ar.FromPAT("bypass", power.PAT{
		Energy: power.Energy{Read: c.bypassE},
		Static: c.bypassPAT.Static,
		Area:   c.bypassPAT.Area,
	}, rw(peak.Bypass*hz, 0, 0), rw(run.Bypass*hz, 0, 0))
	exu.Add(bypass)
	plPeak := c.pipeline.ePerCyc*peak.PipelineDuty + c.pipeline.ePerIdle*(1-peak.PipelineDuty)
	plRun := 0.0
	if run.PipelineDuty > 0 {
		plRun = c.pipeline.ePerCyc*run.PipelineDuty + c.pipeline.ePerIdle*(1-run.PipelineDuty)
	}
	pl := ar.NewItem("pipeline")
	pl.Area = c.pipeline.area
	pl.PeakDynamic = plPeak * hz
	pl.RuntimeDynamic = plRun * hz
	pl.SubLeak = c.pipeline.leak.Sub
	pl.GateLeak = c.pipeline.leak.Gate
	exu.Add(pl)
	glue := ar.NewItem("glue")
	glue.Area = c.glue.area
	glue.PeakDynamic = c.glue.ePerCyc * peak.PipelineDuty * hz
	glue.RuntimeDynamic = c.glue.ePerCyc * run.PipelineDuty * hz
	glue.SubLeak = c.glue.leak.Sub
	glue.GateLeak = c.glue.leak.Gate
	exu.Add(glue)
	item.Add(exu)

	// ------------- LSU -------------------------------------------------
	lsu := ar.NewItemN("LSU", 3)
	lsu.Add(c.leaf(ar, "dcache", c.dcache.PAT,
		rw(peak.DCacheRead*hz, peak.DCacheWrite*hz, 0),
		rw(run.DCacheRead*hz, run.DCacheWrite*hz, 0)))
	lsu.Add(c.leaf(ar, "dcache.mshr", c.dcacheMSH.PAT,
		rw(peak.CacheMiss*hz, peak.CacheMiss*hz, peak.CacheMiss*hz),
		rw(run.CacheMiss*hz, run.CacheMiss*hz, run.CacheMiss*hz)))
	lsu.Add(c.leaf(ar, "lsq", c.lsq.PAT,
		rw(peak.LSQAccess*hz, peak.LSQAccess*hz, peak.LSQSearch*hz),
		rw(run.LSQAccess*hz, run.LSQAccess*hz, run.LSQSearch*hz)))
	item.Add(lsu)

	// ------------- MMU -------------------------------------------------
	mmu := ar.NewItemN("MMU", 2)
	mmu.Add(c.leaf(ar, "itlb", c.itlb.PAT,
		rw(0, peak.CacheMiss*hz*0.01, peak.ITLBAccess*hz),
		rw(0, run.CacheMiss*hz*0.01, run.ITLBAccess*hz)))
	mmu.Add(c.leaf(ar, "dtlb", c.dtlb.PAT,
		rw(0, peak.CacheMiss*hz*0.01, peak.DTLBAccess*hz),
		rw(0, run.CacheMiss*hz*0.01, run.DTLBAccess*hz)))
	item.Add(mmu)

	item.Rollup()
	// Layout overhead: routing channels and white space within the core.
	item.Area *= 1.25
	if cfg.PowerGating {
		// Sleep transistors: ~5% area overhead; when runtime statistics
		// are present, the leakage of idle pipeline intervals is cut to
		// ~30% of nominal.
		item.Area *= 1.05
		if run.PipelineDuty > 0 {
			idle := 1 - run.PipelineDuty
			item.LeakSaved = 0.7 * idle * item.SubLeak
		}
	}
	return item
}

// Area returns the core area (m^2) including layout overhead: the root
// area of the core's report. A synthesized core never changes after New
// (Synthesize shares one instance), so New computes it once and every
// chip build reads it without building the report tree again.
func (c *Core) Area() float64 { return c.area }
