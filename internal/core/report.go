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

// dynamic appends the dynamic power (W) of every leaf of the core's
// report under activity a, in report order: the one definition of how
// activity drives each leaf, used for the TDP column at compile time
// (with the peak activity) and for the runtime inputs of every score.
// The pipeline leaf alone differs between the two: at runtime an idle
// pipeline (no duty) draws nothing.
func (c *Core) dynamic(dst []float64, a Activity, runtime bool) []float64 {
	cfg := &c.Cfg
	hz := cfg.ClockHz

	// IFU
	dst = append(dst,
		c.icache.Energy.DynamicPower(rw(a.ICacheAccess*hz, a.CacheMiss*hz*0.3, 0)),
		c.icacheMSH.Energy.DynamicPower(rw(a.CacheMiss*hz*0.3, a.CacheMiss*hz*0.3, a.CacheMiss*hz*0.3)))
	if c.btb != nil {
		dst = append(dst, c.btb.Energy.DynamicPower(rw(a.BTBAccess*hz, a.BTBAccess*hz*0.1, 0)))
	}
	for _, pr := range [...]*array.Result{c.localPred, c.globPred, c.chooser} {
		if pr != nil {
			dst = append(dst, pr.Energy.DynamicPower(rw(a.PredAccess*hz, a.PredAccess*hz, 0)))
		}
	}
	if c.ras != nil {
		dst = append(dst, c.ras.Energy.DynamicPower(rw(a.PredAccess*hz*0.3, a.PredAccess*hz*0.3, 0)))
	}
	dst = append(dst,
		c.fetchBuf.Energy.DynamicPower(rw(a.Decode*hz, a.ICacheAccess*hz, 0)),
		c.decoder.Energy.DynamicPower(rw(a.Decode*hz, 0, 0)))

	// RNU and scheduler
	if cfg.OoO {
		if cfg.RenameCAM {
			dst = append(dst,
				c.intRAT.Energy.DynamicPower(rw(0, a.Rename*hz, 2*a.Rename*hz)),
				c.fpRAT.Energy.DynamicPower(rw(0, 0.25*a.Rename*hz, 0.5*a.Rename*hz)))
		} else {
			dst = append(dst,
				c.intRAT.Energy.DynamicPower(rw(2*a.Rename*hz, a.Rename*hz, 0)),
				c.fpRAT.Energy.DynamicPower(rw(0.5*a.Rename*hz, 0.25*a.Rename*hz, 0)))
		}
		dst = append(dst,
			c.freeList.Energy.DynamicPower(rw(a.Rename*hz, a.Rename*hz, 0)),
			c.depCheck.Energy.DynamicPower(rw(a.Rename*hz/float64(maxInt(cfg.DecodeWidth, 1)), 0, 0)),
			c.intIQ.Energy.DynamicPower(rw(a.IQIssue*hz, a.IQWrite*hz, a.IQWakeup*hz)),
			c.fpIQ.Energy.DynamicPower(rw(a.FPOp*hz, a.FPOp*hz, a.FPOp*hz)),
			c.rob.Energy.DynamicPower(rw(a.ROBAcc*hz*0.5, a.ROBAcc*hz*0.5, 0)),
			c.sel.Energy.DynamicPower(rw(a.IQIssue*hz, 0, 0)))
	} else {
		dst = append(dst, c.intIQ.Energy.DynamicPower(rw(a.Decode*hz, a.Decode*hz, 0)))
	}

	// EXU
	dst = append(dst, c.intRF.Energy.DynamicPower(rw(a.RFRead*hz, a.RFWrite*hz, 0)))
	if c.fpRF != nil {
		dst = append(dst, c.fpRF.Energy.DynamicPower(rw(a.FPRFRead*hz, a.FPRFWrite*hz, 0)))
	}
	dst = append(dst, c.alu.Energy.DynamicPower(rw(a.IntOp*hz, 0, 0)))
	if cfg.FPUs > 0 {
		dst = append(dst, c.fpu.Energy.DynamicPower(rw(a.FPOp*hz, 0, 0)))
	}
	if cfg.MulDivs > 0 {
		dst = append(dst, c.mul.Energy.DynamicPower(rw(a.MulOp*hz, 0, 0)))
	}
	pl := 0.0
	if !runtime || a.PipelineDuty > 0 {
		pl = c.pipeline.ePerCyc*a.PipelineDuty + c.pipeline.ePerIdle*(1-a.PipelineDuty)
	}
	dst = append(dst,
		power.Energy{Read: c.bypassE}.DynamicPower(rw(a.Bypass*hz, 0, 0)),
		pl*hz,
		c.glue.ePerCyc*a.PipelineDuty*hz)

	// LSU and MMU
	return append(dst,
		c.dcache.Energy.DynamicPower(rw(a.DCacheRead*hz, a.DCacheWrite*hz, 0)),
		c.dcacheMSH.Energy.DynamicPower(rw(a.CacheMiss*hz, a.CacheMiss*hz, a.CacheMiss*hz)),
		c.lsq.Energy.DynamicPower(rw(a.LSQAccess*hz, a.LSQAccess*hz, a.LSQSearch*hz)),
		c.itlb.Energy.DynamicPower(rw(0, a.CacheMiss*hz*0.01, a.ITLBAccess*hz)),
		c.dtlb.Energy.DynamicPower(rw(0, a.CacheMiss*hz*0.01, a.DTLBAccess*hz)))
}

// maxLeaves sizes Emit's stack buffer for the leaves' peak dynamic
// power (an out-of-order core with every optional unit has 30 leaves).
const maxLeaves = 32

// Emit compiles the core's report subtree, rooted at a node named name,
// with its TDP columns at peak activity, and returns the root's row.
// The root takes the layout overhead after its rollup, and a power-gated
// core's root takes its LeakSaved as a score input (see AppendRuntime).
func (c *Core) Emit(b *power.Builder, name string, peak Activity) int {
	cfg := &c.Cfg
	var buf [maxLeaves]float64
	pk := c.dynamic(buf[:0], peak, false)
	i := 0
	leaf := func(name string, p power.PAT) {
		b.Leaf(name, p.Area, pk[i], p.Static.Sub, p.Static.Gate)
		i++
	}
	// units is a functional-unit leaf: n copies, one activity stream.
	units := func(name string, p power.PAT, n int) {
		b.Leaf(name, p.Area*float64(n), pk[i], p.Static.Sub*float64(n), p.Static.Gate*float64(n))
		i++
	}

	b.Open(name)

	b.Open("IFU")
	leaf("icache", c.icache.PAT)
	leaf("icache.mshr", c.icacheMSH.PAT)
	if c.btb != nil {
		leaf("btb", c.btb.PAT)
	}
	if c.localPred != nil || c.globPred != nil || c.chooser != nil || c.ras != nil {
		b.Open("predictor")
		for _, pr := range [...]struct {
			name string
			r    *array.Result
		}{{"local", c.localPred}, {"global", c.globPred}, {"chooser", c.chooser}, {"ras", c.ras}} {
			if pr.r != nil {
				leaf(pr.name, pr.r.PAT)
			}
		}
		b.Close()
	}
	leaf("fetchbuffer", c.fetchBuf.PAT)
	leaf("decoder", c.decoder)
	b.Close()

	if cfg.OoO {
		b.Open("RenameUnit")
		leaf("rat.int", c.intRAT.PAT)
		leaf("rat.fp", c.fpRAT.PAT)
		leaf("freelist", c.freeList.PAT)
		leaf("depcheck", c.depCheck)
		b.Close()
		b.Open("Scheduler")
		leaf("iq.int", c.intIQ.PAT)
		leaf("iq.fp", c.fpIQ.PAT)
		leaf("rob", c.rob.PAT)
		leaf("select", c.sel)
		b.Close()
	} else {
		b.Open("InstQueue")
		leaf("instq", c.intIQ.PAT)
		b.Close()
	}

	b.Open("EXU")
	leaf("rf.int", c.intRF.PAT)
	if c.fpRF != nil {
		leaf("rf.fp", c.fpRF.PAT)
	}
	units("alus", c.alu, cfg.IntALUs)
	if cfg.FPUs > 0 {
		units("fpus", c.fpu, cfg.FPUs)
	}
	if cfg.MulDivs > 0 {
		units("muldiv", c.mul, cfg.MulDivs)
	}
	leaf("bypass", c.bypassPAT)
	b.Leaf("pipeline", c.pipeline.area, pk[i], c.pipeline.leak.Sub, c.pipeline.leak.Gate)
	b.Leaf("glue", c.glue.area, pk[i+1], c.glue.leak.Sub, c.glue.leak.Gate)
	i += 2
	b.Close()

	b.Open("LSU")
	leaf("dcache", c.dcache.PAT)
	leaf("dcache.mshr", c.dcacheMSH.PAT)
	leaf("lsq", c.lsq.PAT)
	b.Close()

	b.Open("MMU")
	leaf("itlb", c.itlb.PAT)
	leaf("dtlb", c.dtlb.PAT)
	b.Close()

	r := b.Close()
	if i != len(pk) {
		panic("core: report leaves and their dynamic powers differ in number")
	}
	// Layout overhead: routing channels and white space within the core.
	root := b.Row(r)
	root.Area *= 1.25
	if cfg.PowerGating {
		// Sleep transistors: ~5% area overhead; the leakage they save
		// is a score input.
		root.Area *= 1.05
		b.InputLeakSaved(r)
	}
	return r
}

// AppendRuntime appends the core's score inputs under runtime activity
// run, in the order Emit assigned them: every leaf's runtime dynamic
// power, then for a power-gated core the leakage saved, ~70% of the
// core's subthreshold leakage over the idle fraction of its cycles.
func (c *Core) AppendRuntime(dst []float64, run Activity) []float64 {
	dst = c.dynamic(dst, run, true)
	if c.Cfg.PowerGating {
		saved := 0.0
		if run.PipelineDuty > 0 {
			idle := 1 - run.PipelineDuty
			saved = 0.7 * idle * c.subLeak
		}
		dst = append(dst, saved)
	}
	return dst
}

// Area returns the core area (m^2) including layout overhead: the root
// area of the core's report. A synthesized core never changes after New
// (Synthesize shares one instance), so New computes it once and every
// chip build reads it without compiling the report again.
func (c *Core) Area() float64 { return c.area }
