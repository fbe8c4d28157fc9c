package core

// Timing reports one core component's latency.
type Timing struct {
	Name  string
	Delay float64 // s, full access latency
	Cycle float64 // s, minimum pipelined cycle time
}

// Timings lists the latency of every timed component in the core, feeding
// the chip-level timing report that locates the hardware critical path.
func (c *Core) Timings() []Timing {
	var out []Timing
	add := func(name string, delay, cycle float64) {
		if delay > 0 {
			out = append(out, Timing{Name: name, Delay: delay, Cycle: cycle})
		}
	}
	add("icache", c.icache.AccessTime, c.icache.CycleTime)
	add("dcache", c.dcache.AccessTime, c.dcache.CycleTime)
	if c.btb != nil {
		add("btb", c.btb.AccessTime, c.btb.CycleTime)
	}
	add("decoder", c.decoder.Delay, c.decoder.Delay)
	add("rf.int", c.intRF.AccessTime, c.intRF.CycleTime)
	if c.fpRF != nil {
		add("rf.fp", c.fpRF.AccessTime, c.fpRF.CycleTime)
	}
	if c.Cfg.OoO {
		add("rat.int", c.intRAT.AccessTime, c.intRAT.CycleTime)
		add("iq.int", c.intIQ.AccessTime, c.intIQ.CycleTime)
		add("rob", c.rob.AccessTime, c.rob.CycleTime)
		add("select", c.sel.Delay, c.sel.Delay)
	}
	add("alu", c.alus.Delay, c.alus.Delay)
	if c.Cfg.FPUs > 0 {
		add("fpu-stage", c.fpus.Delay, c.fpus.Delay)
	}
	if c.Cfg.MulDivs > 0 {
		add("muldiv-stage", c.muls.Delay, c.muls.Delay)
	}
	add("bypass", c.bypass.Delay, c.bypass.Delay)
	add("lsq", c.lsq.AccessTime, c.lsq.CycleTime)
	add("itlb", c.itlb.AccessTime, c.itlb.CycleTime)
	add("dtlb", c.dtlb.AccessTime, c.dtlb.CycleTime)
	return out
}
