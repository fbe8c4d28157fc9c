// Package core implements McPAT's processor-core model. A core is
// decomposed the way the McPAT paper does:
//
//   - Instruction Fetch Unit (IFU): instruction cache, branch target
//     buffer, tournament branch predictor, return address stacks, fetch
//     buffer, and instruction decoders;
//   - Renaming Unit (RNU, out-of-order only): register alias tables, free
//     lists, and inter-instruction dependency-check logic;
//   - Scheduler (out-of-order only): integer/FP issue windows (CAM-based
//     wakeup), reorder buffer, and selection logic; in-order cores carry a
//     simple instruction queue instead;
//   - Execution Unit (EXU): integer/FP register files, ALUs, FPUs,
//     multiplier/dividers, the result-bus/bypass network, and pipeline
//     registers;
//   - Load/Store Unit (LSU): data cache and load/store queue CAMs;
//   - Memory Management Unit (MMU): instruction and data TLBs.
//
// Every storage structure is synthesized through the array model, logic
// through the logic models, and the bypass network through the wire
// models, so a core is a pure composition of the circuit-level substrates.
package core

import (
	"fmt"
	"math"

	"mcpat/internal/array"
	"mcpat/internal/circuit"
	"mcpat/internal/logic"
	"mcpat/internal/power"
	"mcpat/internal/tech"
)

// CacheParams configures a private L1 cache.
type CacheParams struct {
	Bytes      int
	BlockBytes int
	Assoc      int
	Banks      int
	MSHRs      int // miss-status holding registers
	Ports      int // read/write ports (1 = single RW port)
}

func (c *CacheParams) defaults(bytes int) {
	if c.Bytes == 0 {
		c.Bytes = bytes
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = 32
	}
	if c.Assoc == 0 {
		c.Assoc = 4
	}
	if c.Banks == 0 {
		c.Banks = 1
	}
	if c.MSHRs == 0 {
		c.MSHRs = 8
	}
	if c.Ports == 0 {
		c.Ports = 1
	}
}

// Config describes one processor core.
type Config struct {
	Name string

	Tech        *tech.Node
	Dev         tech.DeviceType
	LongChannel bool
	ClockHz     float64

	OoO bool // out-of-order (Alpha/Xeon class) vs in-order (Niagara class)
	X86 bool // CISC front end

	Threads int // hardware thread contexts (1 = single-threaded)

	FetchWidth  int
	DecodeWidth int
	IssueWidth  int
	CommitWidth int

	PipelineDepth int
	DatapathBits  int // 64 for all validation targets

	// Out-of-order structures.
	ROBEntries  int
	IQEntries   int // integer issue window
	FPIQEntries int
	PhysIntRegs int
	PhysFPRegs  int

	// Architectural registers per thread.
	ArchIntRegs int
	ArchFPRegs  int

	ICache CacheParams
	DCache CacheParams

	// Branch prediction (zero values disable the predictor).
	BTBEntries        int
	LocalPredEntries  int
	GlobalPredEntries int
	ChooserEntries    int
	RASEntries        int

	ITLBEntries int
	DTLBEntries int

	IntALUs int
	FPUs    int
	MulDivs int

	LQEntries int
	SQEntries int

	// GlueGates is the size (in 2-input-gate equivalents) of the core's
	// execution-control and datapath glue logic: thread pick/steering,
	// operand muxing, stall/replay control, trap logic - everything McPAT
	// inventories outside the regular arrays and functional units. Zero
	// selects a heuristic derived from issue width and thread count,
	// calibrated against published core transistor budgets (Niagara ~2M
	// gate equivalents, Alpha 21264-class ~4M).
	GlueGates int

	// GlueActivity is the fraction of glue gates toggling per active
	// cycle. Zero selects 0.10; deeply pipelined speculative designs
	// (NetBurst class) run much hotter (~0.25) due to replay and
	// double-pumped datapaths.
	GlueActivity float64

	// RenameCAM selects a CAM-based register alias table (one entry per
	// physical register, searched on every rename and walked on
	// recovery) instead of the default RAM-based RAT - the alternative
	// renaming organization McPAT models.
	RenameCAM bool

	// PowerGating adds sleep transistors to the core: runtime leakage
	// scales down with pipeline idleness at a ~5% core area cost.
	PowerGating bool
}

func (cfg *Config) applyDefaults() error {
	if cfg.Tech == nil {
		return fmt.Errorf("core %q: technology node required", cfg.Name)
	}
	if cfg.ClockHz <= 0 {
		return fmt.Errorf("core %q: clock frequency required", cfg.Name)
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.FetchWidth <= 0 {
		cfg.FetchWidth = 1
	}
	if cfg.DecodeWidth <= 0 {
		cfg.DecodeWidth = cfg.FetchWidth
	}
	if cfg.IssueWidth <= 0 {
		cfg.IssueWidth = cfg.DecodeWidth
	}
	if cfg.CommitWidth <= 0 {
		cfg.CommitWidth = cfg.IssueWidth
	}
	if cfg.PipelineDepth <= 0 {
		if cfg.OoO {
			cfg.PipelineDepth = 14
		} else {
			cfg.PipelineDepth = 6
		}
	}
	if cfg.DatapathBits <= 0 {
		cfg.DatapathBits = 64
	}
	if cfg.ArchIntRegs <= 0 {
		cfg.ArchIntRegs = 32
	}
	if cfg.ArchFPRegs <= 0 {
		cfg.ArchFPRegs = 32
	}
	if cfg.OoO {
		if cfg.ROBEntries <= 0 {
			cfg.ROBEntries = 80
		}
		if cfg.IQEntries <= 0 {
			cfg.IQEntries = 20
		}
		if cfg.FPIQEntries <= 0 {
			cfg.FPIQEntries = 15
		}
		if cfg.PhysIntRegs <= 0 {
			cfg.PhysIntRegs = 80
		}
		if cfg.PhysFPRegs <= 0 {
			cfg.PhysFPRegs = 72
		}
	}
	cfg.ICache.defaults(16 * 1024)
	cfg.DCache.defaults(8 * 1024)
	if cfg.ITLBEntries <= 0 {
		cfg.ITLBEntries = 48
	}
	if cfg.DTLBEntries <= 0 {
		cfg.DTLBEntries = 64
	}
	if cfg.IntALUs <= 0 {
		cfg.IntALUs = 1
	}
	if cfg.LQEntries <= 0 {
		cfg.LQEntries = 16
	}
	if cfg.SQEntries <= 0 {
		cfg.SQEntries = 16
	}
	if cfg.GlueGates <= 0 {
		if cfg.OoO {
			cfg.GlueGates = 650e3*cfg.IssueWidth + 200e3*cfg.Threads
		} else {
			cfg.GlueGates = 400e3*cfg.IssueWidth + 350e3*cfg.Threads
		}
	}
	if cfg.GlueActivity <= 0 {
		cfg.GlueActivity = 0.10
	}
	return nil
}

// Core is a synthesized processor core.
type Core struct {
	Cfg Config

	// IFU
	icache    *array.Result
	icacheMSH *array.Result
	btb       *array.Result
	localPred *array.Result
	globPred  *array.Result
	chooser   *array.Result
	ras       *array.Result
	fetchBuf  *array.Result
	decoder   power.PAT

	// RNU (OoO)
	intRAT   *array.Result
	fpRAT    *array.Result
	freeList *array.Result
	depCheck power.PAT

	// Scheduler
	intIQ *array.Result // CAM window (OoO) or simple queue (in-order)
	fpIQ  *array.Result
	rob   *array.Result
	sel   power.PAT

	// EXU
	intRF *array.Result
	fpRF  *array.Result
	// The IntALUs, FPUs and MulDivs units, each kind as one block
	// (power.PAT.Units).
	alus, fpus, muls power.PAT
	// The result/bypass bus; its read energy is one operand transported.
	bypass   power.PAT
	pipeline pipelineRegs
	glue     glueLogic

	// LSU
	dcache    *array.Result
	dcacheMSH *array.Result
	lsq       *array.Result

	// MMU
	itlb *array.Result
	dtlb *array.Result

	// The report root's area (m^2, with layout overhead) and its rolled-up
	// subthreshold leakage (W), fixed at synthesis: see Area and Walk.
	area, subLeak float64
}

// glueLogic models the non-array, non-FU control and datapath logic of
// the core as a synthesized standard-cell population.
type glueLogic struct {
	power.PAT // area and leakage
	gates     float64
	ePerCyc   float64 // J per fully active cycle (10% of gates toggle)
}

// pipelineRegs tracks the latch overhead of the core pipeline.
type pipelineRegs struct {
	power.PAT         // area and leakage
	bits      float64 // total pipeline register bits
	ff        circuit.DFF
	ePerCyc   float64 // J per cycle at full activity (clk + data toggles)
	ePerIdle  float64 // J per cycle when stalled (clock only, gated fraction)
}

// New synthesizes the core.
func New(cfg Config) (*Core, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	c := &Core{Cfg: cfg}
	n := cfg.Tech
	cycle := 1 / cfg.ClockHz

	mk := func(a array.Config) (*array.Result, error) {
		a.Tech = n
		a.Periph = cfg.Dev
		a.Cell = cfg.Dev
		a.LongChannel = cfg.LongChannel
		if a.TargetCycle == 0 {
			a.TargetCycle = cycle
		}
		return array.New(a)
	}

	var err error
	// ---------------- IFU ----------------------------------------------
	if c.icache, err = mk(array.Config{
		Name:  cfg.Name + ".icache",
		Bytes: cfg.ICache.Bytes, BlockBits: cfg.ICache.BlockBytes * 8,
		Assoc: cfg.ICache.Assoc, Banks: cfg.ICache.Banks,
		RWPorts: cfg.ICache.Ports,
	}); err != nil {
		return nil, err
	}
	if c.icacheMSH, err = mk(array.Config{
		Name:    cfg.Name + ".icache.mshr",
		Entries: cfg.ICache.MSHRs, EntryBits: physAddrBits,
		CellKind: array.CAM, SearchPorts: 1, RWPorts: 1,
	}); err != nil {
		return nil, err
	}
	if cfg.BTBEntries > 0 {
		if c.btb, err = mk(array.Config{
			Name:    cfg.Name + ".btb",
			Entries: cfg.BTBEntries, EntryBits: 24 + 32, // tag + target
			RWPorts: 1,
		}); err != nil {
			return nil, err
		}
	}
	mkPred := func(name string, entries, bits int) (*array.Result, error) {
		if entries <= 0 {
			return nil, nil
		}
		return mk(array.Config{
			Name:    cfg.Name + "." + name,
			Entries: entries, EntryBits: bits,
			RdPorts: 1, WrPorts: 1,
		})
	}
	if c.localPred, err = mkPred("bpred.local", cfg.LocalPredEntries, 2+10); err != nil {
		return nil, err
	}
	if c.globPred, err = mkPred("bpred.global", cfg.GlobalPredEntries, 2); err != nil {
		return nil, err
	}
	if c.chooser, err = mkPred("bpred.chooser", cfg.ChooserEntries, 2); err != nil {
		return nil, err
	}
	if cfg.RASEntries > 0 {
		if c.ras, err = mk(array.Config{
			Name:    cfg.Name + ".ras",
			Entries: cfg.RASEntries * cfg.Threads, EntryBits: 64,
			CellKind: array.DFF, RdPorts: 1, WrPorts: 1,
		}); err != nil {
			return nil, err
		}
	}
	instBits := 32
	if cfg.X86 {
		instBits = 16 * 8 // x86 fetch buffer holds raw byte stream
	}
	if c.fetchBuf, err = mk(array.Config{
		Name:    cfg.Name + ".fetchbuf",
		Entries: 2 * cfg.FetchWidth * cfg.Threads, EntryBits: instBits,
		CellKind: array.DFF, RdPorts: 1, WrPorts: 1,
	}); err != nil {
		return nil, err
	}
	c.decoder = logic.Decoder(n, cfg.Dev, cfg.LongChannel, logic.DecoderConfig{
		Width: cfg.DecodeWidth, OpcodeBits: 8, X86: cfg.X86,
	})

	// ---------------- RNU (OoO only) ------------------------------------
	if cfg.OoO {
		physBits := ceilLog2(cfg.PhysIntRegs)
		archBits := ceilLog2(cfg.ArchIntRegs*cfg.Threads) + 1
		if cfg.RenameCAM {
			// CAM RAT: one entry per physical register holding the
			// architectural tag; renames search, recovery flash-clears.
			if c.intRAT, err = mk(array.Config{
				Name:    cfg.Name + ".rat.int",
				Entries: cfg.PhysIntRegs, EntryBits: 4, TagBits: archBits,
				CellKind: array.CAM, SearchPorts: 2 * cfg.DecodeWidth,
				RdPorts: cfg.DecodeWidth, WrPorts: cfg.DecodeWidth,
			}); err != nil {
				return nil, err
			}
			if c.fpRAT, err = mk(array.Config{
				Name:    cfg.Name + ".rat.fp",
				Entries: cfg.PhysFPRegs, EntryBits: 4, TagBits: archBits,
				CellKind: array.CAM, SearchPorts: 2 * cfg.DecodeWidth,
				RdPorts: cfg.DecodeWidth, WrPorts: cfg.DecodeWidth,
			}); err != nil {
				return nil, err
			}
		} else {
			if c.intRAT, err = mk(array.Config{
				Name:    cfg.Name + ".rat.int",
				Entries: cfg.ArchIntRegs * cfg.Threads, EntryBits: physBits,
				RdPorts: 2 * cfg.DecodeWidth, WrPorts: cfg.DecodeWidth,
			}); err != nil {
				return nil, err
			}
			if c.fpRAT, err = mk(array.Config{
				Name:    cfg.Name + ".rat.fp",
				Entries: cfg.ArchFPRegs * cfg.Threads, EntryBits: ceilLog2(cfg.PhysFPRegs),
				RdPorts: 2 * cfg.DecodeWidth, WrPorts: cfg.DecodeWidth,
			}); err != nil {
				return nil, err
			}
		}
		if c.freeList, err = mk(array.Config{
			Name:    cfg.Name + ".freelist",
			Entries: cfg.PhysIntRegs + cfg.PhysFPRegs, EntryBits: physBits,
			RdPorts: cfg.DecodeWidth, WrPorts: cfg.CommitWidth,
		}); err != nil {
			return nil, err
		}
		c.depCheck = logic.DependencyCheck(n, cfg.Dev, cfg.LongChannel, cfg.DecodeWidth, physBits)

		// ---------------- Scheduler --------------------------------------
		if c.intIQ, err = mk(array.Config{
			Name:    cfg.Name + ".iq.int",
			Entries: cfg.IQEntries, EntryBits: 40, TagBits: 2 * physBits,
			CellKind: array.CAM, SearchPorts: cfg.IssueWidth,
			RdPorts: cfg.IssueWidth, WrPorts: cfg.DecodeWidth,
		}); err != nil {
			return nil, err
		}
		if c.fpIQ, err = mk(array.Config{
			Name:    cfg.Name + ".iq.fp",
			Entries: cfg.FPIQEntries, EntryBits: 40, TagBits: 2 * ceilLog2(cfg.PhysFPRegs),
			CellKind: array.CAM, SearchPorts: cfg.IssueWidth,
			RdPorts: cfg.IssueWidth, WrPorts: cfg.DecodeWidth,
		}); err != nil {
			return nil, err
		}
		if c.rob, err = mk(array.Config{
			Name:    cfg.Name + ".rob",
			Entries: cfg.ROBEntries, EntryBits: 76,
			RdPorts: cfg.CommitWidth, WrPorts: cfg.DecodeWidth,
		}); err != nil {
			return nil, err
		}
		c.sel = logic.Selection(n, cfg.Dev, cfg.LongChannel, cfg.IQEntries, cfg.IssueWidth)
	} else {
		// In-order: a small instruction queue per thread.
		if c.intIQ, err = mk(array.Config{
			Name:    cfg.Name + ".instq",
			Entries: 8 * cfg.Threads, EntryBits: 32,
			CellKind: array.DFF, RdPorts: 1, WrPorts: 1,
		}); err != nil {
			return nil, err
		}
	}

	// ---------------- EXU -----------------------------------------------
	intRFEntries := cfg.ArchIntRegs * cfg.Threads
	fpRFEntries := cfg.ArchFPRegs * cfg.Threads
	if cfg.OoO {
		intRFEntries = cfg.PhysIntRegs
		fpRFEntries = cfg.PhysFPRegs
	}
	if c.intRF, err = mk(array.Config{
		Name:    cfg.Name + ".rf.int",
		Entries: intRFEntries, EntryBits: cfg.DatapathBits,
		RdPorts: 2 * cfg.IssueWidth, WrPorts: cfg.IssueWidth,
	}); err != nil {
		return nil, err
	}
	if cfg.FPUs > 0 || fpRFEntries > 0 {
		if c.fpRF, err = mk(array.Config{
			Name:    cfg.Name + ".rf.fp",
			Entries: fpRFEntries, EntryBits: cfg.DatapathBits,
			RdPorts: 2 * maxInt(cfg.FPUs, 1), WrPorts: maxInt(cfg.FPUs, 1),
		}); err != nil {
			return nil, err
		}
	}
	alu, err := logic.FunctionalUnit(n, cfg.Dev, cfg.LongChannel, logic.IntALU)
	if err != nil {
		return nil, err
	}
	c.alus = alu.Units(cfg.IntALUs)
	if cfg.FPUs > 0 {
		fpu, err := logic.FunctionalUnit(n, cfg.Dev, cfg.LongChannel, logic.FPU)
		if err != nil {
			return nil, err
		}
		c.fpus = fpu.Units(cfg.FPUs)
	}
	if cfg.MulDivs > 0 {
		mul, err := logic.FunctionalUnit(n, cfg.Dev, cfg.LongChannel, logic.MulDiv)
		if err != nil {
			return nil, err
		}
		c.muls = mul.Units(cfg.MulDivs)
	}

	// ---------------- LSU -----------------------------------------------
	if c.dcache, err = mk(array.Config{
		Name:  cfg.Name + ".dcache",
		Bytes: cfg.DCache.Bytes, BlockBits: cfg.DCache.BlockBytes * 8,
		Assoc: cfg.DCache.Assoc, Banks: cfg.DCache.Banks,
		RWPorts: cfg.DCache.Ports,
	}); err != nil {
		return nil, err
	}
	if c.dcacheMSH, err = mk(array.Config{
		Name:    cfg.Name + ".dcache.mshr",
		Entries: cfg.DCache.MSHRs, EntryBits: physAddrBits,
		CellKind: array.CAM, SearchPorts: 1, RWPorts: 1,
	}); err != nil {
		return nil, err
	}
	if c.lsq, err = mk(array.Config{
		Name:    cfg.Name + ".lsq",
		Entries: cfg.LQEntries + cfg.SQEntries, EntryBits: cfg.DatapathBits,
		TagBits:  physAddrBits,
		CellKind: array.CAM, SearchPorts: 1, RdPorts: 1, WrPorts: 1,
	}); err != nil {
		return nil, err
	}

	// ---------------- MMU -----------------------------------------------
	if c.itlb, err = mk(array.Config{
		Name:    cfg.Name + ".itlb",
		Entries: cfg.ITLBEntries, EntryBits: 30, TagBits: 45,
		CellKind: array.CAM, SearchPorts: 1, RWPorts: 1,
	}); err != nil {
		return nil, err
	}
	if c.dtlb, err = mk(array.Config{
		Name:    cfg.Name + ".dtlb",
		Entries: cfg.DTLBEntries, EntryBits: 30, TagBits: 45,
		CellKind: array.CAM, SearchPorts: cfg.DCache.Ports, RWPorts: 1,
	}); err != nil {
		return nil, err
	}

	// ---------------- Bypass network and pipeline registers -------------
	c.buildBypassAndPipeline()
	b := power.NewBuilder(nil)
	peak := PeakActivity(cfg)
	r := c.Walk(&b, cfg.Name, &peak)
	root := b.Program().Rows[r]
	c.area, c.subLeak = root.Area, root.SubLeak
	return c, nil
}

const physAddrBits = 42

// buildBypassAndPipeline sizes the result-bus/bypass wires over the
// execution-unit span and the pipeline latch population.
func (c *Core) buildBypassAndPipeline() {
	cfg := &c.Cfg
	n := cfg.Tech
	cc := circuit.NewCtx(n, cfg.Dev, cfg.LongChannel)

	// EXU span estimate: RFs + FUs laid out in a row.
	exuArea := c.intRF.Area + c.alus.Area + c.fpus.Area + c.muls.Area
	if c.fpRF != nil {
		exuArea += c.fpRF.Area
	}
	span := 2 * math.Sqrt(exuArea)

	wire := n.Wire(tech.Aggressive, tech.SemiGlobal)
	res := cc.RepeatedWire(wire, span)
	busCount := float64(cfg.IssueWidth + cfg.IntALUs + cfg.FPUs + cfg.MulDivs)
	c.bypass = power.PAT{
		// One operand transported = DatapathBits wires toggling at 50%.
		Energy: power.Energy{Read: float64(cfg.DatapathBits) * 0.5 * res.EnergyPerBit},
		Static: power.Static{
			Sub:  res.SubLeak * float64(cfg.DatapathBits) * busCount,
			Gate: res.GateLeak * float64(cfg.DatapathBits) * busCount,
		},
		Area:  res.Area * float64(cfg.DatapathBits) * busCount,
		Delay: res.Delay,
	}

	// Pipeline registers: stages x issue width x (data + control) bits,
	// replicated per thread for the front end.
	ff := cc.NewDFF()
	bitsPerStage := float64(cfg.IssueWidth) * (2.2 * float64(cfg.DatapathBits))
	frontEndStages := float64(cfg.PipelineDepth) * 0.4
	backEndStages := float64(cfg.PipelineDepth) * 0.6
	bits := bitsPerStage * (frontEndStages*float64(cfg.Threads)*0.5 + backEndStages)
	c.pipeline = pipelineRegs{
		PAT: power.PAT{
			Static: power.Static{
				Sub:  ff.SubLeak * bits,
				Gate: ff.GateLeak * bits,
			},
			Area: ff.Area * bits,
		},
		bits:     bits,
		ff:       ff,
		ePerCyc:  bits * (ff.EnergyClk + 0.3*ff.EnergyData),
		ePerIdle: bits * ff.EnergyClk * 0.3, // gated clock residue
	}

	// Glue logic: a standard-cell population with ~10% of gates toggling
	// per active cycle into a fanout-of-4-class load, occupying ~600 F^2
	// of routed cell area per gate (2005-era standard-cell density).
	gates := float64(cfg.GlueGates)
	wmin := n.MinWidthN()
	load := 4 * cc.InvCin(2*wmin)
	glueW := gates * 6 * wmin
	c.glue = glueLogic{
		PAT: power.PAT{
			Static: power.Static{
				Sub:  cc.Dev.Ioff(glueW/2, glueW/2) * cc.Vdd(),
				Gate: cc.Dev.Ig(glueW) * cc.Vdd(),
			},
			Area: gates * 600 * n.Feature * n.Feature,
		},
		gates:   gates,
		ePerCyc: gates * cfg.GlueActivity * cc.SwitchE(load),
	}
}

func ceilLog2(x int) int {
	if x <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(x))))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
