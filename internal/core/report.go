package core

import (
	"mcpat/internal/array"
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

func rw(reads, writes, searches float64) power.Activity {
	return power.Activity{Reads: reads, Writes: writes, Searches: searches}
}

// Walk adds the core's report subtree, rooted at a node named name, to
// b with every leaf's dynamic power under activity a, and returns the
// root's row: the one definition of the core's leaves and of how
// activity drives each, run at the peak activity to compile the TDP
// columns and at the runtime activity to score. The pipeline leaf
// alone differs between the two: at runtime an idle pipeline (no duty)
// draws nothing. The root takes the layout overhead after its rollup,
// and a power-gated core's root takes as its LeakSaved ~70% of the
// core's subthreshold leakage over the idle fraction of its cycles.
func (c *Core) Walk(b *power.Builder, name string, a *Activity) int {
	cfg := &c.Cfg
	hz := cfg.ClockHz
	b.Open(name)

	b.Open("IFU")
	b.Leaf("icache", &c.icache.PAT, c.icache.Energy.DynamicPower(rw(a.ICacheAccess*hz, a.CacheMiss*hz*0.3, 0)))
	b.Leaf("icache.mshr", &c.icacheMSH.PAT, c.icacheMSH.Energy.DynamicPower(rw(a.CacheMiss*hz*0.3, a.CacheMiss*hz*0.3, a.CacheMiss*hz*0.3)))
	if c.btb != nil {
		b.Leaf("btb", &c.btb.PAT, c.btb.Energy.DynamicPower(rw(a.BTBAccess*hz, a.BTBAccess*hz*0.1, 0)))
	}
	if c.localPred != nil || c.globPred != nil || c.chooser != nil || c.ras != nil {
		b.Open("predictor")
		for _, pr := range [...]struct {
			name string
			r    *array.Result
		}{{"local", c.localPred}, {"global", c.globPred}, {"chooser", c.chooser}} {
			if pr.r != nil {
				b.Leaf(pr.name, &pr.r.PAT, pr.r.Energy.DynamicPower(rw(a.PredAccess*hz, a.PredAccess*hz, 0)))
			}
		}
		if c.ras != nil {
			b.Leaf("ras", &c.ras.PAT, c.ras.Energy.DynamicPower(rw(a.PredAccess*hz*0.3, a.PredAccess*hz*0.3, 0)))
		}
		b.Close()
	}
	b.Leaf("fetchbuffer", &c.fetchBuf.PAT, c.fetchBuf.Energy.DynamicPower(rw(a.Decode*hz, a.ICacheAccess*hz, 0)))
	b.Leaf("decoder", &c.decoder, c.decoder.Energy.DynamicPower(rw(a.Decode*hz, 0, 0)))
	b.Close()

	if cfg.OoO {
		b.Open("RenameUnit")
		if cfg.RenameCAM {
			b.Leaf("rat.int", &c.intRAT.PAT, c.intRAT.Energy.DynamicPower(rw(0, a.Rename*hz, 2*a.Rename*hz)))
			b.Leaf("rat.fp", &c.fpRAT.PAT, c.fpRAT.Energy.DynamicPower(rw(0, 0.25*a.Rename*hz, 0.5*a.Rename*hz)))
		} else {
			b.Leaf("rat.int", &c.intRAT.PAT, c.intRAT.Energy.DynamicPower(rw(2*a.Rename*hz, a.Rename*hz, 0)))
			b.Leaf("rat.fp", &c.fpRAT.PAT, c.fpRAT.Energy.DynamicPower(rw(0.5*a.Rename*hz, 0.25*a.Rename*hz, 0)))
		}
		b.Leaf("freelist", &c.freeList.PAT, c.freeList.Energy.DynamicPower(rw(a.Rename*hz, a.Rename*hz, 0)))
		b.Leaf("depcheck", &c.depCheck, c.depCheck.Energy.DynamicPower(rw(a.Rename*hz/float64(maxInt(cfg.DecodeWidth, 1)), 0, 0)))
		b.Close()
		b.Open("Scheduler")
		b.Leaf("iq.int", &c.intIQ.PAT, c.intIQ.Energy.DynamicPower(rw(a.IQIssue*hz, a.IQWrite*hz, a.IQWakeup*hz)))
		b.Leaf("iq.fp", &c.fpIQ.PAT, c.fpIQ.Energy.DynamicPower(rw(a.FPOp*hz, a.FPOp*hz, a.FPOp*hz)))
		b.Leaf("rob", &c.rob.PAT, c.rob.Energy.DynamicPower(rw(a.ROBAcc*hz*0.5, a.ROBAcc*hz*0.5, 0)))
		b.Leaf("select", &c.sel, c.sel.Energy.DynamicPower(rw(a.IQIssue*hz, 0, 0)))
		b.Close()
	} else {
		b.Open("InstQueue")
		b.Leaf("instq", &c.intIQ.PAT, c.intIQ.Energy.DynamicPower(rw(a.Decode*hz, a.Decode*hz, 0)))
		b.Close()
	}

	b.Open("EXU")
	b.Leaf("rf.int", &c.intRF.PAT, c.intRF.Energy.DynamicPower(rw(a.RFRead*hz, a.RFWrite*hz, 0)))
	if c.fpRF != nil {
		b.Leaf("rf.fp", &c.fpRF.PAT, c.fpRF.Energy.DynamicPower(rw(a.FPRFRead*hz, a.FPRFWrite*hz, 0)))
	}
	b.Leaf("alus", &c.alus, c.alus.Energy.DynamicPower(rw(a.IntOp*hz, 0, 0)))
	if cfg.FPUs > 0 {
		b.Leaf("fpus", &c.fpus, c.fpus.Energy.DynamicPower(rw(a.FPOp*hz, 0, 0)))
	}
	if cfg.MulDivs > 0 {
		b.Leaf("muldiv", &c.muls, c.muls.Energy.DynamicPower(rw(a.MulOp*hz, 0, 0)))
	}
	b.Leaf("bypass", &c.bypass, c.bypass.Energy.DynamicPower(rw(a.Bypass*hz, 0, 0)))
	pl := 0.0
	if !b.Scoring() || a.PipelineDuty > 0 {
		pl = c.pipeline.ePerCyc*a.PipelineDuty + c.pipeline.ePerIdle*(1-a.PipelineDuty)
	}
	b.Leaf("pipeline", &c.pipeline.PAT, pl*hz)
	b.Leaf("glue", &c.glue.PAT, c.glue.ePerCyc*a.PipelineDuty*hz)
	b.Close()

	b.Open("LSU")
	b.Leaf("dcache", &c.dcache.PAT, c.dcache.Energy.DynamicPower(rw(a.DCacheRead*hz, a.DCacheWrite*hz, 0)))
	b.Leaf("dcache.mshr", &c.dcacheMSH.PAT, c.dcacheMSH.Energy.DynamicPower(rw(a.CacheMiss*hz, a.CacheMiss*hz, a.CacheMiss*hz)))
	b.Leaf("lsq", &c.lsq.PAT, c.lsq.Energy.DynamicPower(rw(a.LSQAccess*hz, a.LSQAccess*hz, a.LSQSearch*hz)))
	b.Close()

	b.Open("MMU")
	b.Leaf("itlb", &c.itlb.PAT, c.itlb.Energy.DynamicPower(rw(0, a.CacheMiss*hz*0.01, a.ITLBAccess*hz)))
	b.Leaf("dtlb", &c.dtlb.PAT, c.dtlb.Energy.DynamicPower(rw(0, a.CacheMiss*hz*0.01, a.DTLBAccess*hz)))
	b.Close()

	r := b.Close()
	// Layout overhead: routing channels and white space within the core.
	b.AreaOverhead(r, 1.25)
	if cfg.PowerGating {
		// Sleep transistors: ~5% area overhead.
		b.AreaOverhead(r, 1.05)
		saved := 0.0
		if a.PipelineDuty > 0 {
			idle := 1 - a.PipelineDuty
			saved = 0.7 * idle * c.subLeak
		}
		b.LeakSaved(r, saved)
	}
	return r
}

// Area returns the core area (m^2) including layout overhead: the root
// area of the core's report. A synthesized core never changes after New
// (Synthesize shares one instance), so New computes it once and every
// chip build reads it without compiling the report again.
func (c *Core) Area() float64 { return c.area }
